package cov

// SetMaxTable lowers the bounded-table cap for the external tests and
// returns a function restoring it.
func SetMaxTable(n int) (restore func()) {
	old := maxTable
	maxTable = n
	return func() { maxTable = old }
}
