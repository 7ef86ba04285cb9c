package tornado

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"

	"tornado/internal/altgraph"
	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/chaos/soak"
	"tornado/internal/codec"
	"tornado/internal/device"
	"tornado/internal/federation"
	"tornado/internal/graphml"
	"tornado/internal/maid"
	"tornado/internal/raid"
	"tornado/internal/retrieval"
	"tornado/internal/serve"
	"tornado/internal/workload"
)

// Data-path and storage-system types.
type (
	// Codec XORs real bytes through a graph (encode + peeling repair).
	Codec = codec.Codec
	// Device is a simulated drive with online/standby/offline/failed state.
	Device = device.Device
	// DeviceArray is an indexed shelf of devices.
	DeviceArray = device.Array
	// DeviceState is a device's availability state.
	DeviceState = device.State
	// Archive is the prototype archival object store (§2.2, §6).
	Archive = archive.Store
	// ArchiveConfig tunes the store.
	ArchiveConfig = archive.Config
	// ArchiveObject describes a stored object.
	ArchiveObject = archive.Object
	// GetStats reports the retrieval work of one Archive.GetCtx.
	GetStats = archive.GetStats
	// StripeHealth is one stripe's scrub record.
	StripeHealth = archive.StripeHealth
	// ScrubReport aggregates a scrub pass.
	ScrubReport = archive.ScrubReport
	// Shelf is a power-budgeted MAID device array (§2.2).
	Shelf = maid.Shelf
	// Federation is a multi-site replicated system with per-site graphs
	// and block exchange (§5.3).
	Federation = federation.System
	// CriticalSet is a component-graph failure pattern with its lost data.
	CriticalSet = federation.CriticalSet
	// FederationSearchOptions tunes the detected-first-failure search.
	FederationSearchOptions = federation.SearchOptions
	// FederationDetection is a witnessed federation-wide failure.
	FederationDetection = federation.Detection
	// RAIDScheme is a named baseline with its analytic failure model.
	RAIDScheme = raid.Scheme
	// ChaosConfig is a deterministic fault-injection schedule.
	ChaosConfig = chaos.Config
	// ChaosInjector wraps a StorageBackend with seeded fault injection.
	ChaosInjector = chaos.Injector
	// SoakConfig tunes one randomized chaos campaign.
	SoakConfig = soak.Config
	// SoakReport is one campaign's outcome; Check() enforces its invariants.
	SoakReport = soak.Report
	// StreamOption tunes PutStream/GetStream (e.g. WithStreamParallelism).
	StreamOption = archive.StreamOption
	// ServeService is the multi-tenant front door over one Archive:
	// per-tenant namespaces and admission control, and a bounded hot-stripe
	// cache wired to read-repair. Replication is a FederatedStore's job.
	ServeService = serve.Service
	// ServeConfig tunes the serving layer; zero values take the exported
	// serve defaults.
	ServeConfig = serve.Config
	// LoadSpec configures a Zipf load-generator run against a ServeService.
	LoadSpec = workload.LoadSpec
	// LoadResult aggregates one load run (exact p50/p99/p999 latencies).
	LoadResult = workload.LoadResult
)

// Fault-tolerance error sentinels.
var (
	// ErrTransient marks a backend fault worth retrying (archive.ErrTransient).
	ErrTransient = archive.ErrTransient
	// ErrDegraded is Put refusing to store an object below its durability floor.
	ErrDegraded = archive.ErrDegraded
	// ErrInjected is a chaos-injected transient fault (wraps ErrTransient).
	ErrInjected = chaos.ErrInjected
	// ErrNodeLost is a chaos-injected permanent node loss.
	ErrNodeLost = chaos.ErrNodeLost
	// ErrNotFound reports a missing object.
	ErrNotFound = archive.ErrNotFound
	// ErrExists reports an ingest colliding with a stored object.
	ErrExists = archive.ErrExists
	// ErrDataLoss reports an object the erasure code can no longer recover.
	ErrDataLoss = archive.ErrDataLoss
	// ErrOverloaded is the serving layer shedding load (HTTP 503).
	ErrOverloaded = serve.ErrOverloaded
	// ErrUnknownTenant rejects a tenant outside a fixed tenant set.
	ErrUnknownTenant = serve.ErrUnknownTenant
)

// Streaming data-path defaults.
const (
	// DefaultStreamParallelism is the stripe pipeline width of
	// PutStream/GetStream when no WithStreamParallelism option is given.
	DefaultStreamParallelism = archive.DefaultStreamParallelism
)

// WithStreamParallelism bounds a PutStream/GetStream pipeline to n
// concurrent stripes — peak memory is O(n × stripe), never O(object).
func WithStreamParallelism(n int) StreamOption { return archive.WithParallelism(n) }

// NewService fronts one archive with the multi-tenant serving layer; stores
// must hold exactly one. To replicate across sites, use NewFederatedStore.
func NewService(stores []*Archive, cfg ServeConfig) (*ServeService, error) {
	if len(stores) != 1 {
		return nil, fmt.Errorf("tornado: NewService fronts one archive, got %d; replicate with NewFederatedStore", len(stores))
	}
	return serve.New(stores[0], cfg)
}

// RunLoad drives a deterministic Zipf read/write load against a
// ServeService, verifying every retrieved payload bit-for-bit.
func RunLoad(ctx context.Context, svc *ServeService, spec LoadSpec) (LoadResult, error) {
	return workload.RunLoad(ctx, svc, spec)
}

// NewChaosBackend wraps inner with a seeded, deterministic fault injector —
// composable over the device-array and MAID backends alike.
func NewChaosBackend(inner StorageBackend, cfg ChaosConfig) *ChaosInjector {
	return chaos.Wrap(inner, cfg)
}

// RunSoak executes one seeded chaos campaign against a fresh archive stack
// and returns its report; call Report.Check for the invariant verdict.
func RunSoak(cfg SoakConfig) (SoakReport, error) { return soak.RunCtx(context.Background(), cfg) }

// RunSoakCtx is RunSoak with cancellation between campaign operations; a
// run that completes is byte-identical to an uncancelled one.
func RunSoakCtx(ctx context.Context, cfg SoakConfig) (SoakReport, error) {
	return soak.RunCtx(ctx, cfg)
}

// DefaultSoakFaults is the moderate-rate fault schedule soak campaigns use
// by default.
func DefaultSoakFaults() ChaosConfig { return soak.DefaultFaults() }

// Device state values.
const (
	DeviceOnline  = device.Online
	DeviceStandby = device.Standby
	DeviceOffline = device.Offline
	DeviceFailed  = device.Failed
)

// NewCodec returns a byte codec for g with the given block size.
func NewCodec(g *Graph, blockSize int) (*Codec, error) { return codec.New(g, blockSize) }

// NewDevices returns n fresh online simulated devices.
func NewDevices(n int) DeviceArray { return device.NewArray(n) }

// NewArchive builds an archival object store over one device per graph
// node.
func NewArchive(g *Graph, devices DeviceArray, cfg ArchiveConfig) (*Archive, error) {
	return archive.New(g, devices, cfg)
}

// StorageBackend abstracts the block storage under an Archive.
type StorageBackend = archive.Backend

// NewArchiveWithBackend builds an archival store over a custom backend,
// e.g. a MAID shelf (NewShelfBackend).
func NewArchiveWithBackend(g *Graph, backend StorageBackend, cfg ArchiveConfig) (*Archive, error) {
	return archive.NewWithBackend(g, backend, cfg)
}

// NewShelfBackend adapts a MAID shelf for use as an Archive backend:
// standby drives count as available and are spun up on demand, and guided
// retrieval favors drives that are already spinning.
func NewShelfBackend(shelf *Shelf) StorageBackend { return maid.NewStoreBackend(shelf) }

// ArchiveStripeLayout describes an archive's striping parameters.
type ArchiveStripeLayout = archive.StripeLayout

// NewShelf wraps devices in a MAID power manager allowing at most maxOn
// simultaneously spinning drives.
func NewShelf(devices DeviceArray, maxOn int) (*Shelf, error) {
	return maid.NewShelf(devices, maxOn)
}

// PlanRetrieval selects a minimal cheap block set that reconstructs a
// stripe (§5.2/§6 guided search). cost may be nil for unit cost.
func PlanRetrieval(g *Graph, available []bool, cost func(node int) float64) ([]int, float64, error) {
	if cost == nil {
		return retrieval.Plan(g, available, nil)
	}
	return retrieval.Plan(g, available, cost)
}

// NewFederation builds a multi-site replicated system over the given site
// graphs (paper §5.3: "each site uses a different Tornado Code graph").
func NewFederation(sites ...*Graph) (*Federation, error) {
	return federation.NewSystem(sites...)
}

// CriticalSetsOf expands failing erasure sets into CriticalSets by decoding
// each against g.
func CriticalSetsOf(g *Graph, failures [][]int) []CriticalSet {
	return federation.CriticalSets(g, failures)
}

// Baseline graph families (§4.1, §4.3).

// MirroredGraph returns an n-pair mirrored system as a parity graph.
func MirroredGraph(pairs int) *Graph { return raid.MirroredGraph(pairs) }

// RAID5Graph returns luns drawers of disksPerLUN drives as a parity graph.
func RAID5Graph(luns, disksPerLUN int) *Graph { return raid.RAID5Graph(luns, disksPerLUN) }

// RegularGraph returns a random degree-regular single-stage bipartite graph
// with data nodes per side.
func RegularGraph(data, degree int, seed uint64) (*Graph, error) {
	return altgraph.RegularSingleStage(data, degree, rand.New(rand.NewPCG(seed, 2)))
}

// FixedCascadeGraph returns a cascaded random graph with constant left
// degree (the paper's fixed-degree cascading LDPC graphs).
func FixedCascadeGraph(totalNodes, degree int, seed uint64) (*Graph, error) {
	return altgraph.FixedCascade(totalNodes, degree, rand.New(rand.NewPCG(seed, 2)))
}

// DoubledTornadoGraph returns an altered Tornado graph with the left
// distribution doubled (§4.3).
func DoubledTornadoGraph(p Params, seed uint64) (*Graph, GenStats, error) {
	return altgraph.DoubledTornado(p, rand.New(rand.NewPCG(seed, 2)))
}

// ShiftedTornadoGraph returns an altered Tornado graph with the left
// distribution shifted +1 edge (§4.3).
func ShiftedTornadoGraph(p Params, seed uint64) (*Graph, GenStats, error) {
	return altgraph.ShiftedTornado(p, rand.New(rand.NewPCG(seed, 2)))
}

// Analytic baseline failure models (§4.1, Table 5).

// MirroredFailGivenK is Equation (1) for an n-pair mirrored array.
func MirroredFailGivenK(pairs, k int) float64 { return raid.MirroredFailGivenK(pairs, k) }

// RAID5FailGivenK is the analytic drawer-parity model.
func RAID5FailGivenK(luns, disksPerLUN, k int) float64 {
	return raid.RAID5FailGivenK(luns, disksPerLUN, k)
}

// RAID6FailGivenK is the analytic dual-parity drawer model.
func RAID6FailGivenK(luns, disksPerLUN, k int) float64 {
	return raid.RAID6FailGivenK(luns, disksPerLUN, k)
}

// StripingFailGivenK is the no-redundancy model (any loss is fatal).
func StripingFailGivenK(n, k int) float64 { return raid.StripingFailGivenK(n, k) }

// Paper96Schemes returns the paper's 96-drive baseline systems.
func Paper96Schemes() []RAIDScheme { return raid.Paper96Schemes() }

// WriteDOT renders g as Graphviz DOT with the given nodes highlighted (the
// testing suite's failed-graph rendering).
func WriteDOT(w io.Writer, g *Graph, highlight []int) error {
	return graphml.DOT(w, g, highlight)
}

// WriteSVG renders g as a standalone SVG with the given nodes highlighted
// (no Graphviz needed).
func WriteSVG(w io.Writer, g *Graph, highlight []int) error {
	return graphml.SVG(w, g, highlight)
}

// WriteGraphML writes g as GraphML to w.
func WriteGraphML(w io.Writer, g *Graph) error { return graphml.Encode(w, g) }

// ReadGraphML parses a GraphML graph from r.
func ReadGraphML(r io.Reader) (*Graph, error) { return graphml.Decode(r) }
