package chaos

import (
	"reflect"
	"testing"
	"time"
)

func TestWANSiteLossAndRestore(t *testing.T) {
	w := NewWAN(WANConfig{Sites: 3, Seed: 1})
	for i := 0; i < 3; i++ {
		if !w.SiteUp(i) {
			t.Fatalf("site %d should start up", i)
		}
	}
	w.LoseSite(1)
	w.LoseSite(1) // idempotent
	if w.SiteUp(1) {
		t.Error("lost site still up")
	}
	if got := w.UpSites(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("UpSites = %v, want [0 2]", got)
	}
	if w.LinkUp(0, 1) || w.LinkUp(1, 2) {
		t.Error("links to a lost site should be down")
	}
	if !w.LinkUp(0, 2) {
		t.Error("link between surviving sites should be up")
	}
	if got := w.InjectedWANTotals()[WANClassSiteLoss]; got != 1 {
		t.Errorf("site_loss injections = %d, want 1 (idempotent)", got)
	}
	w.RestoreSite(1)
	if !w.SiteUp(1) || !w.LinkUp(0, 1) {
		t.Error("restored site should be reachable")
	}
}

func TestWANPartitionIsPairwise(t *testing.T) {
	w := NewWAN(WANConfig{Sites: 3})
	w.Partition(2, 0) // order must not matter
	if w.LinkUp(0, 2) || w.LinkUp(2, 0) {
		t.Error("partitioned link reported up")
	}
	// Both endpoints stay up and their other links work.
	if !w.SiteUp(0) || !w.SiteUp(2) {
		t.Error("partition must not take sites down")
	}
	if !w.LinkUp(0, 1) || !w.LinkUp(1, 2) {
		t.Error("unrelated links went down")
	}
	w.HealLink(0, 2)
	if !w.LinkUp(0, 2) {
		t.Error("healed link still down")
	}
}

func TestWANBrownout(t *testing.T) {
	w := NewWAN(WANConfig{Sites: 2})
	if d := w.LinkLatency(0, 1); d != 0 {
		t.Fatalf("healthy link latency = %v", d)
	}
	w.BrownoutLink(0, 1, 5*time.Millisecond)
	if d := w.LinkLatency(1, 0); d != 5*time.Millisecond {
		t.Errorf("latency = %v, want 5ms (symmetric)", d)
	}
	if !w.LinkUp(0, 1) {
		t.Error("browned-out link must stay up")
	}
	w.HealLink(0, 1)
	if d := w.LinkLatency(0, 1); d != 0 {
		t.Errorf("heal left latency %v", d)
	}
}

func TestWANFlapExpiresWithSteps(t *testing.T) {
	w := NewWAN(WANConfig{Sites: 2})
	w.FlapSite(1, 3)
	if w.SiteUp(1) {
		t.Fatal("flapped site should be dark")
	}
	for i := 0; i < 3; i++ {
		w.Step()
	}
	if !w.SiteUp(1) {
		t.Error("flap window should have expired")
	}
}

func TestWANDeterministicFlapSchedule(t *testing.T) {
	run := func() []bool {
		w := NewWAN(WANConfig{Sites: 4, Seed: 99, SiteFlapRate: 0.2, FlapWindow: 4})
		var states []bool
		for i := 0; i < 200; i++ {
			w.Step()
			for s := 0; s < 4; s++ {
				states = append(states, w.SiteUp(s))
			}
		}
		return states
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different site schedules")
	}
	flapped := false
	for _, up := range a {
		if !up {
			flapped = true
			break
		}
	}
	if !flapped {
		t.Error("rate 0.2 over 200 steps never flapped a site")
	}
}

func TestWANQuiesceStopsFlapsKeepsLosses(t *testing.T) {
	w := NewWAN(WANConfig{Sites: 3, Seed: 7, SiteFlapRate: 1})
	w.LoseSite(0)
	w.Partition(1, 2)
	w.Step() // guaranteed flap draw
	w.Quiesce()
	if !w.SiteUp(1) || !w.SiteUp(2) {
		t.Error("quiesce should end flap windows")
	}
	if w.SiteUp(0) {
		t.Error("quiesce must keep explicit site loss")
	}
	if w.LinkUp(1, 2) {
		t.Error("quiesce must keep explicit partitions")
	}
	steps := w.Steps()
	for i := 0; i < 50; i++ {
		w.Step()
	}
	if w.Steps() != steps+50 {
		t.Error("step clock stopped")
	}
	if !w.SiteUp(1) || !w.SiteUp(2) {
		t.Error("quiesced WAN injected a flap")
	}
	w.HealAll()
	if !w.SiteUp(0) || !w.LinkUp(1, 2) {
		t.Error("HealAll left damage")
	}
}

// TestWANLinkCap: an uncapped link charges only its brownout latency; a capped
// one charges each transfer the time the link needs to carry everything
// admitted before it and then the transfer itself, so however many callers
// ask at once the link never carries more than its rate. The cap is capacity,
// not a fault: healing leaves it, only LimitLink(…, 0) lifts it.
func TestWANLinkCap(t *testing.T) {
	w := NewWAN(WANConfig{Sites: 3})
	if d := w.Transfer(0, 1, 1<<20); d != 0 {
		t.Errorf("uncapped healthy link charged %v", d)
	}
	w.BrownoutLink(0, 1, 3*time.Millisecond)
	if d := w.Transfer(1, 0, 1<<20); d != w.LinkLatency(0, 1) {
		t.Errorf("uncapped browned-out link charged %v, its latency is %v", d, w.LinkLatency(0, 1))
	}
	w.HealAll()

	const rate, n, callers = 1_000_000, 5_000, 8 // 5 ms a transfer
	w.LimitLink(1, 0, rate)
	if d := w.Transfer(0, 2, n); d != 0 {
		t.Errorf("cap on 0-1 charged the 0-2 link %v", d)
	}
	t0 := time.Now()
	clears := make(chan time.Time, callers)
	for range callers {
		go func() {
			d := w.Transfer(0, 1, n)
			clears <- time.Now().Add(d)
		}()
	}
	var last time.Time
	for range callers {
		if c := <-clears; c.After(last) {
			last = c
		}
	}
	if floor := callers * n * time.Second / rate; last.Sub(t0) < floor {
		t.Errorf("%d concurrent transfers of %d B clear a %d B/s link after %v, under the %v they take back to back", callers, n, rate, last.Sub(t0), floor)
	}
	if got := w.InjectedWANTotals(); got[WANClassBrownout] != 1 || got[WANClassPartition] != 0 {
		t.Errorf("a cap was counted as a fault: %v", got)
	}

	w.HealAll()
	if d := w.Transfer(0, 1, n); d <= 0 {
		t.Error("HealAll lifted the cap")
	}
	w.LimitLink(0, 1, 0)
	if d := w.Transfer(0, 1, n); d != 0 {
		t.Errorf("lifted cap still charges %v", d)
	}
}
