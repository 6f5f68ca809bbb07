package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/store"
)

// ServingInputs is the generated serving model and its training exclusions,
// written to the files the program loads. The benchmark keeps its own
// in-memory copies to build the offline references it checks against.
type ServingInputs struct {
	Model   *mf.Model
	Train   *dataset.Dataset
	F64Path string // store v1 float64 file (store.LoadFile)
	F32Path string // store v3 float32 file (store.LoadMapped), "" unless asked for
	TSVPath string // training positives, the exclusion sets
	GenSecs float64
}

// makeServingInputs builds the serving model the way RunRetrievalBench
// does: datagen ground-truth factors on the profile's full item catalog
// plus a popularity-aligned bias, so the score geometry matches a trained
// model. datagen costs O(users x items), so it runs for spec.BaseUsers
// users; the user base is then grown to spec.Users by giving user u the
// factors of base user u mod BaseUsers plus Gaussian jitter, and that base
// user's positives.
func makeServingInputs(spec WorldSpec, seed uint64, dir string, f32 bool) (*ServingInputs, error) {
	t0 := time.Now()
	p, err := datagen.ProfileByName(spec.Profile)
	if err != nil {
		return nil, err
	}
	p.Pairs = int(float64(p.Pairs) * float64(spec.BaseUsers) / float64(p.Users))
	p.Users = spec.BaseUsers
	world, err := datagen.Generate(p, mathx.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	dim, numItems := world.Dim, p.Items
	rng := mathx.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	jitter := spec.UserJitter / math.Sqrt(float64(dim))
	users := make([]float64, spec.Users*dim)
	b := dataset.NewBuilder(spec.Profile, spec.Users, numItems)
	for u := 0; u < spec.Users; u++ {
		base := u % spec.BaseUsers
		for d := 0; d < dim; d++ {
			users[u*dim+d] = world.TrueUser[base*dim+d] + jitter*rng.NormFloat64()
		}
		for _, it := range world.Data.Positives(int32(base)) {
			if err := b.Add(int32(u), it); err != nil {
				return nil, err
			}
		}
	}
	bias := make([]float64, numItems)
	for i := range bias {
		bias[i] = spec.BiasScale * math.Log(world.Popularity[i])
	}
	m, err := mf.FromRaw(mf.Config{NumUsers: spec.Users, NumItems: numItems, Dim: dim, UseBias: true},
		users, world.TrueItem, bias)
	if err != nil {
		return nil, err
	}
	in := &ServingInputs{
		Model:   m,
		Train:   b.Build(),
		F64Path: filepath.Join(dir, "model.clapf"),
		TSVPath: filepath.Join(dir, "train.tsv"),
	}
	if err := store.SaveFile(in.F64Path, m); err != nil {
		return nil, err
	}
	if f32 {
		in.F32Path = filepath.Join(dir, "model-f32.clapf")
		if err := store.SaveF32File(in.F32Path, mf.QuantizeF32(m), nil); err != nil {
			return nil, err
		}
	}
	if err := writeTSV(in.TSVPath, in.Train); err != nil {
		return nil, err
	}
	in.GenSecs = time.Since(t0).Seconds()
	return in, nil
}

// TrainInputs is the train-dss corpus: the profile at full size, split in
// half into train and test, written as TSV files the run reads back.
type TrainInputs struct {
	Train, Test         *dataset.Dataset
	TrainPath, TestPath string
	GenSecs             float64
}

func makeTrainInputs(spec TrainSpec, seed uint64, dir string) (*TrainInputs, error) {
	t0 := time.Now()
	p, err := datagen.ProfileByName(spec.Profile)
	if err != nil {
		return nil, err
	}
	world, err := datagen.Generate(p.Scaled(spec.Scale), mathx.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	train, test := dataset.Split(world.Data, mathx.NewRNG(seed+1000), 0.5)
	in := &TrainInputs{Train: train, Test: test,
		TrainPath: filepath.Join(dir, "train.tsv"), TestPath: filepath.Join(dir, "test.tsv")}
	if err := writeTSV(in.TrainPath, train); err != nil {
		return nil, err
	}
	if err := writeTSV(in.TestPath, test); err != nil {
		return nil, err
	}
	in.GenSecs = time.Since(t0).Seconds()
	return in, nil
}

func writeTSV(path string, d *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := dataset.WriteTSV(w, d); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTSV(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := dataset.ReadTSV(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", filepath.Base(path), err)
	}
	return d, nil
}
