package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"ligra/internal/compress"
	"ligra/internal/gen"
	"ligra/internal/graph"
)

// graphSpec names one generated input. The file the server loads is
// written once per (family, size, seed) and kept in the cache directory.
type graphSpec struct {
	family     string // "rmat" or "grid3d"
	scale      int    // rmat: 2^scale vertices, edge factor 16
	side       int    // grid3d: side^3 vertices
	weights    int32  // > 0 attaches hash weights in [1, weights]
	compressed bool   // LIGRAGC1 instead of LIGRAGO1 (binary CSR)
	// seed, when nonzero, fixes the rMat seed instead of drawing the
	// graph from the run's seed: gen.RMAT takes about 26 s and 3.2 GiB at
	// scale 21 on a 2-vCPU machine, so that workload builds one graph per
	// checkout and varies everything else.
	seed uint64
}

// graphSeed is the rMat seed for a run seeded with seed.
func (gs graphSpec) graphSeed(seed uint64) uint64 {
	if gs.seed != 0 {
		return gs.seed
	}
	return seed
}

func (gs graphSpec) format() string {
	if gs.compressed {
		return "LIGRAGC1"
	}
	return "LIGRAGO1"
}

// fileName keys the cache by family, size and graph seed. The grid is a
// fixed torus, so no seed enters its key.
func (gs graphSpec) fileName(seed uint64) string {
	ext := ".bin"
	if gs.compressed {
		ext = ".gc"
	}
	switch gs.family {
	case "grid3d":
		return fmt.Sprintf("grid3d-side%d-w%d%s", gs.side, gs.weights, ext)
	default:
		return fmt.Sprintf("rmat-scale%d-w%d-seed%d%s", gs.scale, gs.weights, gs.graphSeed(seed), ext)
	}
}

// loadOrBuild returns the CSR graph for spec and seed and the path of
// the file the server will load, generating and writing the file when
// the cache does not hold it yet.
func loadOrBuild(cacheDir string, gs graphSpec, seed uint64) (*graph.Graph, string, error) {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, "", err
	}
	path := filepath.Join(cacheDir, gs.fileName(seed))
	if g, err := readCached(path, gs); err == nil {
		return g, path, nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, "", fmt.Errorf("cached graph %s: %w", path, err)
	}
	g, err := generate(gs, seed)
	if err != nil {
		return nil, "", err
	}
	if err := writeGraph(path, g, gs); err != nil {
		return nil, "", err
	}
	return g, path, nil
}

func readCached(path string, gs graphSpec) (*graph.Graph, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	if !gs.compressed {
		return graph.LoadFile(path, false)
	}
	c, err := compress.ReadCompressedFile(path)
	if err != nil {
		return nil, err
	}
	return c.Decompress()
}

func generate(gs graphSpec, seed uint64) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	switch gs.family {
	case "rmat":
		g, err = gen.RMAT(gs.scale, 16, gen.PBBSRMAT, gs.graphSeed(seed))
	case "grid3d":
		g, err = gen.Grid3D(gs.side)
	default:
		err = fmt.Errorf("unknown graph family %q", gs.family)
	}
	if err != nil {
		return nil, err
	}
	if gs.weights > 0 {
		g = g.AddWeights(graph.HashWeight(gs.weights))
	}
	return g, nil
}

// writeGraph writes through a temporary file and renames it into place,
// so an interrupted run never leaves a truncated graph in the cache.
func writeGraph(path string, g *graph.Graph, gs graphSpec) error {
	tmp := path + ".tmp"
	var err error
	if gs.compressed {
		var c *compress.CompressedGraph
		if c, err = compress.Compress(g); err == nil {
			err = compress.WriteCompressedFile(tmp, c)
		}
	} else {
		err = graph.SaveFile(tmp, g, true)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return os.Rename(tmp, path)
}
