package chaos

// FlapSite takes site i dark for the next window Steps (cfg.FlapWindow if
// window <= 0), then it recovers by itself.
func (w *WAN) FlapSite(i, window int) {
	w.checkSite(i)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flapSiteLocked(i, window)
}

// Steps returns the WAN operation clock.
func (w *WAN) Steps() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.steps
}

// UpSites returns the reachable sites in ascending order.
func (w *WAN) UpSites() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []int
	for i := 0; i < w.cfg.Sites; i++ {
		if w.siteUpLocked(i) {
			out = append(out, i)
		}
	}
	return out
}
