// Package repairbw is the archive's repair-economics ledger: byte-level
// accounting of every block the data path moves while repairing damage,
// attributed to the cause that moved it. The paper measures *whether* a
// Tornado cascade survives erasures; modern repair-bandwidth work (the
// LDPC repair-bandwidth and regenerating-codes lines in PAPERS.md) treats
// repair *traffic* as a first-class metric alongside reliability and
// storage overhead. A Meter threads through scrub, read-repair, degraded
// GetStream, and the federated block exchange, so "how many bytes did
// healing cost" is measured, not inferred.
//
// Attribution convention: a healthy stripe read (the plan reads exactly
// the Data data blocks, every frame verifies) moves zero repair bytes.
// Everything beyond that baseline — extra blocks a degraded plan pulls in,
// corrupt frames read and discarded, whole failed recovery attempts — is
// degraded-get traffic; write-backs of reconstructed blocks are
// read-repair traffic; every byte a scrub pass touches is scrub traffic
// (the pass exists only to find and fix damage); and block-level exchange
// between federated sites is federation traffic. The conservation test in
// internal/chaos asserts these attributions sum exactly to the bytes
// observed crossing the backend.
package repairbw

import "tornado/internal/obs"

// Cause labels why repair traffic moved.
type Cause int

const (
	// Scrub is proactive verification and repair: every byte a scrub pass
	// reads or writes.
	Scrub Cause = iota
	// ReadRepair is the write-back of blocks reconstructed during a read.
	ReadRepair
	// DegradedGet is read amplification on the Get path: bytes read beyond
	// the healthy-stripe baseline (Data blocks), including corrupt frames
	// and failed recovery attempts.
	DegradedGet
	// Federation is the block-level exchange between federated sites
	// (ReadBlock/WriteBlock) used by fedstore's exchange and RepairSite.
	Federation

	// NumCauses is the cause count (for iteration).
	NumCauses
)

var causeNames = [NumCauses]string{"scrub", "read_repair", "degraded_get", "federation"}

// String returns the cause's counter-name spelling.
func (c Cause) String() string {
	if c < 0 || c >= NumCauses {
		return "unknown"
	}
	return causeNames[c]
}

// CostReport is the repair bill of one operation (or one cause's running
// total): blocks and framed bytes moved in each direction.
type CostReport struct {
	BlocksRead    int   `json:"blocks_read"`
	BlocksWritten int   `json:"blocks_written"`
	BytesRead     int64 `json:"bytes_read"`
	BytesWritten  int64 `json:"bytes_written"`
}

// Add accumulates o into c.
func (c *CostReport) Add(o CostReport) {
	c.BlocksRead += o.BlocksRead
	c.BlocksWritten += o.BlocksWritten
	c.BytesRead += o.BytesRead
	c.BytesWritten += o.BytesWritten
}

// Zero reports whether the report moved nothing.
func (c CostReport) Zero() bool {
	return c.BlocksRead == 0 && c.BlocksWritten == 0 && c.BytesRead == 0 && c.BytesWritten == 0
}

// Bytes returns total bytes moved in both directions.
func (c CostReport) Bytes() int64 { return c.BytesRead + c.BytesWritten }

// causeCounters is one cause's four obs counters.
type causeCounters struct {
	blocksRead    *obs.Counter
	blocksWritten *obs.Counter
	bytesRead     *obs.Counter
	bytesWritten  *obs.Counter
}

// Meter attributes repair traffic to causes through obs counters
// (repairbw.<cause>.bytes_read and friends), so the ledger shows up in the
// same registry snapshot as the rest of the store's self-healing metrics.
// Record is atomic-add only — safe for concurrent use and free of
// allocation on the data path.
type Meter struct {
	causes [NumCauses]causeCounters
}

// NewMeter registers the per-cause counters on reg (nil gets a private
// registry).
func NewMeter(reg *obs.Registry) *Meter {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Meter{}
	for c := Cause(0); c < NumCauses; c++ {
		prefix := "repairbw." + c.String() + "."
		m.causes[c] = causeCounters{
			blocksRead:    reg.Counter(prefix + "blocks_read"),
			blocksWritten: reg.Counter(prefix + "blocks_written"),
			bytesRead:     reg.Counter(prefix + "bytes_read"),
			bytesWritten:  reg.Counter(prefix + "bytes_written"),
		}
	}
	return m
}

// Record attributes one operation's repair bill to cause. Nil meters and
// empty reports are no-ops, so callers need no guards on the hot path.
func (m *Meter) Record(cause Cause, r CostReport) {
	if m == nil || cause < 0 || cause >= NumCauses || r.Zero() {
		return
	}
	cc := &m.causes[cause]
	cc.blocksRead.Add(int64(r.BlocksRead))
	cc.blocksWritten.Add(int64(r.BlocksWritten))
	cc.bytesRead.Add(r.BytesRead)
	cc.bytesWritten.Add(r.BytesWritten)
}

// Totals returns the running bill of one cause.
func (m *Meter) Totals(cause Cause) CostReport {
	if m == nil || cause < 0 || cause >= NumCauses {
		return CostReport{}
	}
	cc := &m.causes[cause]
	return CostReport{
		BlocksRead:    int(cc.blocksRead.Value()),
		BlocksWritten: int(cc.blocksWritten.Value()),
		BytesRead:     cc.bytesRead.Value(),
		BytesWritten:  cc.bytesWritten.Value(),
	}
}

// Total returns the bill summed over every cause.
func (m *Meter) Total() CostReport {
	var out CostReport
	for c := Cause(0); c < NumCauses; c++ {
		out.Add(m.Totals(c))
	}
	return out
}
