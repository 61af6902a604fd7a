package cg

// BuildMatrix and Config expose the matrix builder and a kernel's
// configuration to the tests in package cg_test, which read the presets
// from the kernel registry.
var BuildMatrix = buildMatrix

func (k *Kernel) Config() Config { return k.cfg }
