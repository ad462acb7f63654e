package format

// Test hooks for the external test package, which can import the sidecar.

// NewLineScan is newLineScan.
var NewLineScan = newLineScan

// PublishStats is what a recording scan's close does for the statistics.
func (st *State) PublishStats() { st.publishStats(false) }
