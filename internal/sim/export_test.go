package sim

// Accessors that only this package's tests call.

// Pending returns the number of scheduled events not yet executed.
func (k *Kernel) Pending() int { return k.wheelLen + len(k.events) }
