package sweep

// SetBudgetForTest resizes the process's compute budget to n slots and
// returns a function restoring the previous one. Call both only while no
// unit holds or waits for a slot.
func SetBudgetForTest(n int) (restore func()) {
	old := budget
	budget = make(chan struct{}, n)
	return func() { budget = old }
}
