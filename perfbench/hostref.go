package main

import "time"

// The host-speed reference: a fixed amount of benchmark-owned work
// shaped like an interpreter (a switch over opcodes, an operand stack,
// locals, a backward branch). On a shared host the speed at which a CPU
// runs interpreter code changes by half within minutes (the work of
// other machines on the same cores) without any steal; the reference's
// time follows it. Timed just before each set-up, it scales setup_s,
// and timed after each jvm98 pass on the CPU the pass ran on, it scales
// jvm98's timings (jvm98.perCPU), to a host on which the reference takes
// refNominalMs. It is the benchmark's own code, so a change to the
// program moves the scaled figures in full.

const (
	refIters     = 100_000
	refNominalMs = 3.0
)

const (
	opPush = iota
	opLoad
	opStore
	opAdd
	opMul
	opXor
	opShr
	opDec
	opJnz
	opHalt
)

// refProgram counts local 0 down to zero, folding each value into
// local 1.
var refProgram = []int64{
	opLoad, 1, opLoad, 0, opPush, 3, opMul, opXor, opLoad, 0, opPush, 2, opShr, opAdd, opStore, 1,
	opLoad, 0, opDec, opStore, 0, opLoad, 0, opJnz, 0, opHalt,
}

// refSink keeps the reference's result live.
var refSink int64

func refInterp(n int64) int64 {
	code := refProgram
	var stack [16]int64
	locals := [2]int64{n, 0}
	sp, pc := 0, 0
	for {
		switch code[pc] {
		case opPush:
			stack[sp] = code[pc+1]
			sp++
			pc += 2
		case opLoad:
			stack[sp] = locals[code[pc+1]]
			sp++
			pc += 2
		case opStore:
			sp--
			locals[code[pc+1]] = stack[sp]
			pc += 2
		case opAdd:
			sp--
			stack[sp-1] += stack[sp]
			pc++
		case opMul:
			sp--
			stack[sp-1] *= stack[sp]
			pc++
		case opXor:
			sp--
			stack[sp-1] ^= stack[sp]
			pc++
		case opShr:
			sp--
			stack[sp-1] >>= uint(stack[sp])
			pc++
		case opDec:
			stack[sp-1]--
			pc++
		case opJnz:
			sp--
			if stack[sp] != 0 {
				pc = int(code[pc+1])
			} else {
				pc += 2
			}
		case opHalt:
			return locals[1]
		}
	}
}

// hostRefMs times one run of the reference, in ms.
func hostRefMs() float64 {
	start := time.Now()
	refSink += refInterp(refIters)
	return float64(time.Since(start)) / float64(time.Millisecond)
}
