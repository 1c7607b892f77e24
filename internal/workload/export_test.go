package workload

// ParetoDraw exposes paretoDraw to the external tests in package
// workload_test, which range over internal/suite (suite imports workload,
// so a test inside this package cannot): depth is the draw's decision,
// tabled whether newParetoDraw built its tables.
func ParetoDraw(alpha float64, hot int) (depth func(u float64, n int) (int, bool), tabled bool) {
	p := newParetoDraw(alpha, hot)
	return p.depth, p.table
}

// WriteCut exposes writeCut to the external tests, which check it against
// the float comparison it replaces for every suite.Paper write fraction.
var WriteCut = writeCut
