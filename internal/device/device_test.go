package device

import (
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
)

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(3)
	if d.ID() != 3 || d.State() != Online {
		t.Fatal("fresh device wrong")
	}
	if err := d.Write([]byte("a"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("Read = %q", got)
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.BytesRead != 5 || st.BytesWritten != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReadIsCopy(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("abc"))
	got, _ := d.Read([]byte("a"))
	got[0] = 'X'
	again, _ := d.Read([]byte("a"))
	if string(again) != "abc" {
		t.Error("Read returned aliased storage")
	}
}

// TestReadIntoLandsInDst: a block that fits is copied into the caller's
// buffer (no allocation, the stored copy untouched by later writes to dst),
// one that does not fit is grown into a fresh slice, and errors hand back
// nothing.
func TestReadIntoLandsInDst(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("abc"))
	dst := make([]byte, 1, 8)
	got, err := d.ReadInto([]byte("a"), dst)
	if err != nil || string(got) != "abc" || &got[0] != &dst[0] {
		t.Fatalf("ReadInto = %q, %v (aliases dst: %v)", got, err, len(got) > 0 && &got[0] == &dst[0])
	}
	got[0] = 'X'
	if again, _ := d.ReadInto([]byte("a"), nil); string(again) != "abc" {
		t.Error("ReadInto handed out the stored block")
	}
	if small, err := d.ReadInto([]byte("a"), make([]byte, 0, 2)); err != nil || string(small) != "abc" {
		t.Errorf("ReadInto with a short dst = %q, %v", small, err)
	}
	if got, err := d.ReadInto([]byte("nope"), dst); got != nil || !errors.Is(err, ErrNotFound) {
		t.Errorf("missing block: %q, %v", got, err)
	}
	key := []byte("a")
	if n := testing.AllocsPerRun(100, func() { d.ReadInto(key, dst) }); n != 0 {
		t.Errorf("ReadInto into a large enough dst allocates %.0f times", n)
	}
}

func TestHoldsAnswersStateAndKey(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("x"))
	d.PowerOff()
	if d.Holds([]byte("a"), Online) || !d.Holds([]byte("a"), Online, Standby) {
		t.Error("standby device: Holds must honour the state list")
	}
	if d.Holds([]byte("nope"), Online, Standby) {
		t.Error("Holds reported a key the device never stored")
	}
}

func TestWriteIsCopy(t *testing.T) {
	d := New(0)
	buf := []byte("abc")
	d.Write([]byte("a"), buf)
	buf[0] = 'X'
	got, _ := d.Read([]byte("a"))
	if string(got) != "abc" {
		t.Error("Write aliased caller buffer")
	}
}

func TestReadMissing(t *testing.T) {
	d := New(0)
	if _, err := d.Read([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestUnavailableStates(t *testing.T) {
	for _, setup := range []func(*Device){
		func(d *Device) { d.PowerOff() },
		func(d *Device) { d.SetOffline() },
		func(d *Device) { d.Fail() },
	} {
		d := New(0)
		d.Write([]byte("a"), []byte("x"))
		setup(d)
		if _, err := d.Read([]byte("a")); !errors.Is(err, ErrUnavailable) {
			t.Errorf("Read in %v: err = %v", d.State(), err)
		}
		if err := d.Write([]byte("b"), []byte("y")); !errors.Is(err, ErrUnavailable) {
			t.Errorf("Write in %v: err = %v", d.State(), err)
		}
		if err := d.Delete([]byte("a")); !errors.Is(err, ErrUnavailable) {
			t.Errorf("Delete in %v: err = %v", d.State(), err)
		}
	}
}

func TestPowerCycle(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("x"))
	d.PowerOff()
	if d.State() != Standby {
		t.Fatalf("state = %v", d.State())
	}
	d.PowerOn()
	if d.State() != Online {
		t.Fatalf("state = %v", d.State())
	}
	if d.Stats().SpinUps != 1 {
		t.Errorf("spinups = %d", d.Stats().SpinUps)
	}
	// Data survives standby.
	if got, err := d.Read([]byte("a")); err != nil || string(got) != "x" {
		t.Errorf("data lost across power cycle: %v %q", err, got)
	}
	// PowerOn on an online device is a no-op.
	d.PowerOn()
	if d.Stats().SpinUps != 1 {
		t.Error("redundant PowerOn counted")
	}
}

func TestOfflinePreservesData(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("x"))
	d.SetOffline()
	d.SetOnline()
	if got, err := d.Read([]byte("a")); err != nil || string(got) != "x" {
		t.Errorf("data lost across offline: %v %q", err, got)
	}
}

func TestFailDestroysData(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("x"))
	d.Fail()
	if d.State() != Failed {
		t.Fatalf("state = %v", d.State())
	}
	if d.Holds([]byte("a"), Failed) {
		t.Error("failed device still holds data")
	}
	// Offline/online transitions must not resurrect a failed device.
	d.SetOffline()
	d.SetOnline()
	if d.State() != Failed {
		t.Errorf("failed device revived to %v", d.State())
	}
	d.Replace()
	if d.State() != Online || d.Len() != 0 {
		t.Error("Replace should give a fresh online device")
	}
}

func TestPowerOffOnlyFromOnline(t *testing.T) {
	d := New(0)
	d.Fail()
	d.PowerOff()
	if d.State() != Failed {
		t.Errorf("PowerOff changed failed device to %v", d.State())
	}
}

func TestDeleteAndHasAndLen(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("x"))
	d.Write([]byte("b"), []byte("y"))
	if d.Len() != 2 || !d.Holds([]byte("a"), Online) {
		t.Error("Holds/Len wrong")
	}
	if err := d.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if d.Holds([]byte("a"), Online) || d.Len() != 1 {
		t.Error("Delete did not remove block")
	}
	if err := d.Delete([]byte("nope")); err != nil {
		t.Errorf("Delete missing = %v, want nil", err)
	}
}

func TestArray(t *testing.T) {
	a := NewArray(10)
	if len(a) != 10 || a[7].ID() != 7 {
		t.Fatal("NewArray wrong")
	}
	if a.CountState(Online) != 10 {
		t.Error("fresh array not all online")
	}
	ids := a.FailRandom(3, rand.New(rand.NewPCG(1, 1)))
	if len(ids) != 3 {
		t.Fatalf("failed %d devices", len(ids))
	}
	if a.CountState(Failed) != 3 || a.CountState(Online) != 7 {
		t.Error("counts after FailRandom wrong")
	}
	// Distinct IDs.
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Error("duplicate failed ID")
		}
		seen[id] = true
	}
	// k > len clamps.
	if got := a.FailRandom(100, rand.New(rand.NewPCG(2, 2))); len(got) != 10 {
		t.Errorf("clamped FailRandom returned %d", len(got))
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := New(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			key := []byte{byte('a' + n)}
			for j := 0; j < 100; j++ {
				d.Write(key, []byte{byte(j)})
				d.Read(key)
				d.Holds(key, Online)
			}
		}(i)
	}
	wg.Wait()
	if d.Len() != 8 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Online: "online", Standby: "standby", Offline: "offline", Failed: "failed", State(9): "state(9)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}
