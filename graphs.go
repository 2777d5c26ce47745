package ligra

import (
	"io"

	"ligra/internal/compress"
	"ligra/internal/gen"
	"ligra/internal/graph"
)

// FromEdges builds a CSR graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge, opts BuildOptions) (*Graph, error) {
	return graph.FromEdges(n, edges, opts)
}

// FromCSR wraps pre-built CSR arrays as a Graph, validating invariants.
func FromCSR(offsets []int64, edges []uint32, weights []int32, symmetric bool) (*Graph, error) {
	return graph.FromCSR(offsets, edges, weights, symmetric)
}

// LoadOptions configures Load. The zero value loads into the heap and
// treats text inputs as directed.
type LoadOptions struct {
	// Symmetric declares that a text-format file stores an undirected
	// graph. Binary and compressed files record directedness themselves,
	// so the flag is ignored for them.
	Symmetric bool
	// MMap memory-maps a compressed (LIGRAGC1) file instead of reading
	// it onto the heap: warm restarts, page-cache sharing across
	// processes. Requesting it for any other format is an error — only
	// the compressed layout supports in-place use.
	MMap bool
}

// Load reads a graph file in any supported format and returns it as a
// View. The format is sniffed by content, not extension, in the
// precedence docs/FORMATS.md documents: the LIGRAGC1 magic loads as a
// *CompressedGraph (memory-mapped when opts.MMap is set), the LIGRAGO1
// magic as the binary CSR *Graph, and everything else parses as text —
// AdjacencyGraph if the header line says so, edge list otherwise.
// Callers that need a concrete type can type-assert the result; new code
// should stay on View so every backend (heap, compressed, mapped,
// delta-overlaid) is accepted downstream.
func Load(path string, opts LoadOptions) (View, error) {
	return compress.LoadView(path, opts.Symmetric, opts.MMap)
}

// SaveGraph writes a graph to a file in text (binary=false) or binary
// format.
func SaveGraph(path string, g *Graph, binary bool) error {
	return graph.SaveFile(path, g, binary)
}

// ReadAdjacency parses the AdjacencyGraph / WeightedAdjacencyGraph text
// format from r.
func ReadAdjacency(r io.Reader, symmetric bool) (*Graph, error) {
	return graph.ReadAdjacency(r, symmetric)
}

// WriteAdjacency writes g in the AdjacencyGraph text format. It accepts
// any View (heap, compressed, mapped, or delta-overlaid).
func WriteAdjacency(w io.Writer, g View) error {
	return graph.WriteAdjacency(w, g)
}

// ReadEdgeList parses the whitespace-separated "src dst [weight]" format
// (SNAP-style, with #/% comments) and builds a graph with the given
// options.
func ReadEdgeList(r io.Reader, opts BuildOptions) (*Graph, error) {
	return graph.ReadEdgeList(r, opts)
}

// WriteEdgeList writes one "src dst [weight]" line per directed edge.
// It accepts any View.
func WriteEdgeList(w io.Writer, g View) error {
	return graph.WriteEdgeList(w, g)
}

// ComputeStats scans g and returns structural statistics. It accepts any
// View; the memory figure is 0 for backends that do not report one.
func ComputeStats(g View) Stats { return graph.ComputeStats(g) }

// ValidateGraph checks CSR invariants (and edge pairing for symmetric
// graphs).
func ValidateGraph(g *Graph) error { return graph.Validate(g) }

// HashWeight returns a deterministic, endpoint-symmetric edge-weight
// function with values in [1, maxW], as used for the paper's Bellman-Ford
// inputs; pass it to (*Graph).AddWeights.
func HashWeight(maxW int32) func(s, d uint32, i int64) int32 {
	return graph.HashWeight(maxW)
}

// Relabel returns a copy of g with vertex IDs renamed by perm
// (perm[old] = new; must be a bijection). Vertex reordering is the
// standard locality optimization for traversal-bound workloads.
func Relabel(g *Graph, perm []uint32) (*Graph, error) { return graph.Relabel(g, perm) }

// DegreeOrderPermutation returns the permutation renaming vertices in
// decreasing out-degree order, for use with Relabel.
func DegreeOrderPermutation(g View) []uint32 { return graph.DegreeOrderPermutation(g) }

// InducedSubgraph returns the subgraph induced by the kept vertices,
// densely renumbered, with old->new and new->old ID maps.
func InducedSubgraph(g *Graph, keep func(v uint32) bool) (*Graph, []uint32, []uint32, error) {
	return graph.InducedSubgraph(g, keep)
}

// FilterEdges returns a copy of g keeping only edges accepted by keep
// (Ligra's edge packing as a whole-graph operation).
func FilterEdges(g *Graph, keep func(s, d uint32, w int32) bool) (*Graph, error) {
	return graph.FilterEdges(g, keep)
}

// RMATParams configures the R-MAT generator.
type RMATParams = gen.RMATParams

// Generator parameter presets.
var (
	// PBBSRMAT matches the PBBS rMat defaults used in the paper.
	PBBSRMAT = gen.PBBSRMAT
	// Graph500RMAT matches the Graph500 parameters (heavier skew).
	Graph500RMAT = gen.Graph500RMAT
)

// RMAT generates a symmetrized power-law graph with 2^scale vertices and
// about edgeFactor*2^scale undirected edges.
func RMAT(scale, edgeFactor int, params RMATParams, seed uint64) (*Graph, error) {
	return gen.RMAT(scale, edgeFactor, params, seed)
}

// RMATDirected is RMAT without symmetrization.
func RMATDirected(scale, edgeFactor int, params RMATParams, seed uint64) (*Graph, error) {
	return gen.RMATDirected(scale, edgeFactor, params, seed)
}

// RandomLocal generates a uniform-degree symmetric graph with windowed
// locality (the paper's randLocal family).
func RandomLocal(n, degree, window int, seed uint64) (*Graph, error) {
	return gen.RandomLocal(n, degree, window, seed)
}

// Grid3D generates a 3-D torus mesh with side^3 vertices (the paper's
// 3d-grid family).
func Grid3D(side int) (*Graph, error) { return gen.Grid3D(side) }

// ErdosRenyi generates a symmetric uniform random graph.
func ErdosRenyi(n, m int, seed uint64) (*Graph, error) {
	return gen.ErdosRenyi(n, m, seed)
}

// WattsStrogatz generates a small-world graph: ring lattice with 2k
// neighbors per vertex and rewiring probability p.
func WattsStrogatz(n, k int, p float64, seed uint64) (*Graph, error) {
	return gen.WattsStrogatz(n, k, p, seed)
}

// CompressedGraph is a byte-compressed (Ligra+) graph; it implements View,
// so every algorithm runs on it unmodified.
type CompressedGraph = compress.CompressedGraph

// Compress encodes g with Ligra+ byte codes (difference-encoded varint
// adjacency lists).
func Compress(g *Graph) (*CompressedGraph, error) { return compress.Compress(g) }

// SaveCompressed writes c to path in the LIGRAGC1 compressed format.
func SaveCompressed(path string, c *CompressedGraph) error {
	return compress.WriteCompressedFile(path, c)
}

// LoadCompressed reads a LIGRAGC1 compressed file into the heap,
// validating it fully (corrupt input returns an error, never panics).
func LoadCompressed(path string) (*CompressedGraph, error) {
	return compress.ReadCompressedFile(path)
}

// OpenMapped memory-maps a LIGRAGC1 compressed file read-only: the graph's
// sections alias the page cache, so restarts are warm, co-hosted processes
// share one physical copy, and the heap footprint is ~0. On non-unix
// platforms (and big-endian hosts) it falls back to LoadCompressed.
func OpenMapped(path string) (*CompressedGraph, error) {
	return compress.OpenMapped(path)
}
