package sweep

// SetBudgetForTest resizes the process's compute budget to n slots and
// returns a function restoring the previous one. Call both only while no
// unit holds or waits for a slot.
func SetBudgetForTest(n int) (restore func()) {
	old := budget
	budget = make(chan struct{}, n)
	return func() { budget = old }
}

// IdleCores reports how many cores e's free list holds, and the most it
// may hold: one per slot of the compute budget.
func (e *Engine) IdleCores() (n, bound int) { return len(e.cores), cap(budget) }
