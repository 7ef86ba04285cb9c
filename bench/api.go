package main

// api.go is the benchmark's whole view of the repository: the only file that
// imports it. Everything else in this package reaches the system through the
// aliases and thin constructors below (methods on the aliased types are called
// directly). It binds only context-first entry points that ROADMAP's deletion
// list keeps — no KernelScalar / *KernelCtx variants, no PutParallel /
// GetParallel, no non-ctx internal variants, no Decoder, no reference
// oracles — so a simplification PR can delete those without editing the
// benchmark, and a PR that changes one of these signatures sees exactly one
// file break.

import (
	"context"
	"io"

	"tornado"
	"tornado/internal/archive"
	"tornado/internal/codec"
	"tornado/internal/combin"
	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/defect"
	"tornado/internal/device"
	"tornado/internal/fedstore"
	"tornado/internal/retrieval"
	"tornado/internal/serve"
	"tornado/internal/sim"
)

type (
	Graph           = tornado.Graph
	AdjustReport    = tornado.AdjustReport
	WorstCaseResult = tornado.WorstCaseResult
	FailureProfile  = tornado.FailureProfile
	CertifyResult   = tornado.CertifyResult

	Store        = archive.Store
	scrubReport  = archive.ScrubReport
	Backend      = archive.Backend
	Devices      = device.Array
	Service      = serve.Service
	FedStore     = fedstore.Store
	repairReport = fedstore.RepairReport

	Codec        = codec.Codec
	Planner      = retrieval.Planner
	CSR          = decode.CSR
	Kernel       = decode.Kernel
	SlicedKernel = decode.SlicedKernel
	Sampler      = sim.StratifiedSampler
)

const blockSize = 4096 // 48 data blocks => 192 KiB of payload per stripe

// serveStoreKey is how serve names a tenant's object inside its archive store
// (serve.key: tenant, NUL, name). The traced run needs it to replay
// Store.ReadStripe on the object a Service.Get just served; set-up fails
// loudly if the mapping ever changes.
func serveStoreKey(tenant, name string) string { return tenant + "\x00" + name }

// ---- facade: graph design and certification --------------------------------

// generate builds the defect-screened graph of the given size; 96 is the
// paper's construction, anything above core.StreamThreshold takes the
// streaming path.
func generate(nodes int, seed uint64) (*Graph, error) {
	p := tornado.DefaultParams()
	p.TotalNodes = nodes
	g, _, err := tornado.Generate(p, seed)
	return g, err
}

func improve(ctx context.Context, g *Graph, maxK int, seed uint64) (*Graph, []AdjustReport, error) {
	return tornado.ImproveCtx(ctx, g, maxK, tornado.AdjustOptions{Workers: 1}, seed)
}

// worstCase searches every cardinality up to maxK with the zero-value kernel
// option: what a caller who sets nothing gets.
func worstCase(ctx context.Context, g *Graph, maxK, workers int) (WorstCaseResult, error) {
	return tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{MaxK: maxK, KeepGoing: true, Workers: workers})
}

func profile(ctx context.Context, g *Graph, trials int64, seed uint64) (*FailureProfile, error) {
	return tornado.ProfileCtx(ctx, g, tornado.ProfileOptions{Trials: trials, Workers: 1, Seed: seed})
}

func certify(ctx context.Context, g *Graph, k int, epsilon float64, seed uint64) (*CertifyResult, error) {
	return tornado.CertifyCtx(ctx, g, k, tornado.CertifyOptions{Epsilon: epsilon, Workers: 1, Seed: seed})
}

func loadPrecompiled(name string) (*Graph, error) { return tornado.LoadPrecompiled(name) }

func precompiledCertificate(name string) (string, error) {
	return tornado.PrecompiledCertificate(name)
}

// ---- data path --------------------------------------------------------------

func newDevices(n int) Devices { return device.NewArray(n) }

// newStore is the untraced store: the plain device-array backend.
func newStore(g *Graph, devs Devices) (*Store, error) {
	return archive.New(g, devs, archive.Config{BlockSize: blockSize})
}

// newShimStore is the traced store: the same device array behind the
// benchmark's counting/timing backend.
func newShimStore(g *Graph, devs Devices, t *tracer) (*Store, *backendShim, error) {
	shim := &backendShim{Backend: archive.NewArrayBackend(devs), t: t}
	st, err := archive.NewWithBackend(g, shim, archive.Config{BlockSize: blockSize})
	return st, shim, err
}

// putStream ingests at the default pipeline width.
func putStream(ctx context.Context, st *Store, name string, r io.Reader) (int, error) {
	return st.PutStream(ctx, name, r)
}

// putStreamSeq ingests on the sequential path (one stripe at a time).
func putStreamSeq(ctx context.Context, st *Store, name string, r io.Reader) (int, error) {
	return st.PutStream(ctx, name, r, archive.WithParallelism(1))
}

// getStreamSeq restores on the sequential path. Every end-to-end restore uses
// it: default-parallel GetStream deadlocks at seed (ROADMAP P0).
func getStreamSeq(ctx context.Context, st *Store, name string, w io.Writer) (int, error) {
	n, _, err := st.GetStream(ctx, name, w, archive.WithParallelism(1))
	return n, err
}

// getStreamPar restores at the default pipeline width; only the hang probe
// calls it.
func getStreamPar(ctx context.Context, st *Store, name string, w io.Writer) (int, error) {
	n, _, err := st.GetStream(ctx, name, w)
	return n, err
}

// newService fronts one store with the serve layer at its defaults (8 MiB
// stripe cache, admission 8 in flight + 32 queued per tenant).
func newService(st *Store) (*Service, error) {
	return tornado.NewService([]*Store{st}, tornado.ServeConfig{})
}

// newFedStore federates the sites with the strictest write quorum (all).
func newFedStore(sites []*Store) (*FedStore, error) {
	return fedstore.New(sites, fedstore.Config{WriteQuorum: len(sites)})
}

// ---- layers below the data path --------------------------------------------

func newCodec(g *Graph) (*Codec, error) { return codec.New(g, blockSize) }

func newPlanner(g *Graph) *Planner { return retrieval.NewPlanner(g) }

func unitCost(v int) float64 { return retrieval.UnitCost(v) }

// ---- layers below certification --------------------------------------------

func newCSR(g *Graph) *CSR                 { return decode.NewCSR(g) }
func newKernel(c *CSR) *Kernel             { return decode.NewKernel(c) }
func newSlicedKernel(c *CSR) *SlicedKernel { return decode.NewSlicedKernel(c) }
func newSampler(c *CSR) *Sampler           { return sim.NewStratifiedSampler(c) }

// scanRange scans the revolving-door ranks [lo, hi) of cardinality k on the
// calling goroutine and returns how many patterns it tested.
func scanRange(ctx context.Context, g *Graph, k int, lo, hi int64) (int64, error) {
	r, err := sim.ScanRangeCtx(ctx, g, k, lo, hi, sim.DefaultMaxFailures)
	return r.Tested, err
}

// scanDataLevel runs the generation-time defect screen (closed data-node sets
// up to maxSize) on one worker and returns the number of findings.
func scanDataLevel(ctx context.Context, g *Graph, maxSize int) (int, error) {
	f, err := defect.ScanDataLevelCtx(ctx, g, maxSize, 1)
	return len(f), err
}

func closedDataPairs(g *Graph) int { return len(core.ClosedDataPairs(g)) }

func grayNext(idx []int, n int) (out, in int, ok bool) { return combin.GrayNext(idx, n) }
