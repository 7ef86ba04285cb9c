package decode

// Left returns the options the last Root left unspent of its budget.
func (e *StoppingEnumerator) Left() int64 { return e.left }
