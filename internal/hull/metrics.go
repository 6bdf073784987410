package hull

import "mincore/internal/obs"

// Clarkson-scan metrics: certified / solves is the interior screen's
// yield. Each scan publishes its counts once, behind the obs.On() gate.
var (
	mScreenSolves = obs.Default.Counter("mincore_hull_screen_solves_total",
		"Interior-screen containment LP solves in Clarkson's scan.", nil)
	mScreenCertified = obs.Default.Counter("mincore_hull_screen_certified_total",
		"Points the interior screen certified inside the warm-start hull, skipping the exact test.", nil)
	mExactTests = obs.Default.Counter("mincore_hull_exact_tests_total",
		"Points that took the exact containment test (Gilbert, then the tiered LP).", nil)
)

func (st scanStats) publish() {
	if obs.On() {
		mScreenSolves.Add(uint64(st.screenSolves))
		mScreenCertified.Add(uint64(st.screenCertified))
		mExactTests.Add(uint64(st.exactTests))
	}
}
