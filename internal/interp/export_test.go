package interp

import (
	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
)

// PrepareMethodForTest exposes the preparation pass (including the
// superinstruction fusion pass) to the external test package
// (the fuzz target drives it with adversarial instruction streams; the
// oracle tests reach it through normal execution).
func PrepareMethodForTest(m *classfile.Method) *bytecode.PCode { return prepareMethod(m) }
