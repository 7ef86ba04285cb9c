package fedstore

import (
	"context"

	"tornado/internal/archive"
	"tornado/internal/graph"
)

// Site is one member of the federation as the Store sees it — exactly the
// site API, context first. An *archive.Store fills it in process (New wraps
// each one); a *steward.Client fills it over HTTP. A Site that cannot be
// reached at all answers with an error matching ErrSiteDown; any other error
// is the site's own verdict on the request.
type Site interface {
	Layout(ctx context.Context) (archive.StripeLayout, error)
	Graph(ctx context.Context) (*graph.Graph, error)
	Stat(ctx context.Context, name string) (archive.Object, error)
	List(ctx context.Context) ([]archive.Object, error)
	Put(ctx context.Context, name string, data []byte) error
	Get(ctx context.Context, name string) ([]byte, error)
	Delete(ctx context.Context, name string) error
	// ReadBlock returns one verified block, read into dst's capacity when the
	// site can (archive.Store.ReadBlockCtx); a nil dst asks for a block of the
	// caller's own.
	ReadBlock(ctx context.Context, name string, stripe, node int, dst []byte) ([]byte, error)
	WriteBlock(ctx context.Context, name string, stripe, node int, payload []byte) error
	PutShell(ctx context.Context, name string, size, stripes int) error
	// Scrub runs a site-local scrub; repair rebuilds what the site can
	// recover alone.
	Scrub(ctx context.Context, repair bool) (archive.ScrubReport, error)
	// RepairFrom is a repairing scrub that makes one donor call for each
	// stripe the site cannot complete alone (archive.Store.RepairFrom).
	RepairFrom(ctx context.Context, donor archive.Donor) (archive.DonorReport, error)
}

// local is the in-process Site: an archive.Store behind the seam. It never
// answers ErrSiteDown — only a chaos.WAN takes an in-process site away.
type local struct{ s *archive.Store }

func (l local) Layout(context.Context) (archive.StripeLayout, error) { return l.s.Layout(), nil }
func (l local) Graph(context.Context) (*graph.Graph, error)          { return l.s.Graph(), nil }
func (l local) List(context.Context) ([]archive.Object, error)       { return l.s.List(), nil }

func (l local) Stat(_ context.Context, name string) (archive.Object, error) {
	return l.s.Stat(name)
}

func (l local) Put(ctx context.Context, name string, data []byte) error {
	return l.s.PutCtx(ctx, name, data)
}

func (l local) Get(ctx context.Context, name string) ([]byte, error) {
	data, _, err := l.s.GetCtx(ctx, name)
	return data, err
}

func (l local) Delete(ctx context.Context, name string) error { return l.s.DeleteCtx(ctx, name) }

func (l local) ReadBlock(ctx context.Context, name string, stripe, node int, dst []byte) ([]byte, error) {
	return l.s.ReadBlockCtx(ctx, name, stripe, node, dst)
}

func (l local) WriteBlock(ctx context.Context, name string, stripe, node int, payload []byte) error {
	return l.s.WriteBlockCtx(ctx, name, stripe, node, payload)
}

func (l local) PutShell(_ context.Context, name string, size, stripes int) error {
	return l.s.PutShell(name, size, stripes)
}

func (l local) Scrub(ctx context.Context, repair bool) (archive.ScrubReport, error) {
	return l.s.ScrubCtx(ctx, repair)
}

func (l local) RepairFrom(ctx context.Context, donor archive.Donor) (archive.DonorReport, error) {
	return l.s.RepairFrom(ctx, donor)
}
