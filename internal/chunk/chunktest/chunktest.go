// Package chunktest poisons recycled run storage for tests: with Poison on,
// every array and chunk a store takes back (chunk.Of.Rewind, chunk.Recycle)
// is overwritten before the next run gets it, so a result that still points
// into the storage of the run that made it reads garbage instead of its
// numbers, and a comparison against a fresh run fails.
package chunktest

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/chunk"
)

// Pattern is the byte poisoned storage is filled with. Read as a float64 it
// is about -2.2e-130, as an int64 a large negative number: no run computes
// either.
const Pattern = 0xA5

// Poison turns the hook on until t ends. t must not run in parallel with
// anything else that runs a simulation.
func Poison(t testing.TB) {
	prev := chunk.Poison
	chunk.Poison = Fill
	t.Cleanup(func() { chunk.Poison = prev })
}

// Fill poisons a slice's elements: every byte Pattern when the element type
// holds no pointers, zero otherwise (the garbage collector must never see a
// poisoned pointer; a nil one fails as loudly when followed).
func Fill(s any) {
	v := reflect.ValueOf(s)
	if v.Kind() != reflect.Slice || v.Len() == 0 {
		return
	}
	if hasPointers(v.Type().Elem()) {
		v.Clear()
		return
	}
	b := unsafe.Slice((*byte)(v.UnsafePointer()), uintptr(v.Len())*v.Type().Elem().Size())
	for i := range b {
		b[i] = Pattern
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}
