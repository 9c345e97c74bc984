package ir

import (
	"encoding/json"
	"fmt"
)

// ReferenceDecodeProgram is the reflective decoder DecodeProgram
// replaced: encoding/json into the wire structs, then the program
// built from them with every check DecodeProgram keeps. It differs
// from the original only in rejecting null elements of funcs, globals
// and blocks, on which the original dereferenced nil.
// FuzzDecodeProgram holds DecodeProgram to it.
func ReferenceDecodeProgram(data []byte) (*Program, error) {
	var wp wireProgram
	if err := json.Unmarshal(data, &wp); err != nil {
		return nil, fmt.Errorf("ir: decode program: %w", err)
	}
	if wp.Version != WireVersion {
		return nil, fmt.Errorf("ir: decode program: wire version %d, want %d", wp.Version, WireVersion)
	}
	syms := make([]*Symbol, len(wp.Globals))
	for i, ws := range wp.Globals {
		if ws == nil {
			return nil, fmt.Errorf("ir: decode program: null element in globals")
		}
		syms[i] = &Symbol{
			Name: ws.Name, Class: ws.Class, Size: ws.Size, Local: ws.Local,
			Spill: ws.Spill, InitInt: ws.InitInt, InitFloat: ws.InitFloat,
		}
	}
	p := &Program{}
	for _, g := range syms {
		if !g.Local {
			p.Globals = append(p.Globals, g)
		}
	}
	for _, wf := range wp.Funcs {
		if wf == nil {
			return nil, fmt.Errorf("ir: decode program: null element in funcs")
		}
		fn, err := referenceDecodeFunc(wf, syms)
		if err != nil {
			return nil, err
		}
		p.AddFunc(fn)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("ir: decoded program invalid: %w", err)
	}
	return p, nil
}

func referenceDecodeFunc(wf *wireFunc, syms []*Symbol) (*Func, error) {
	fn := &Func{
		Name:        wf.Name,
		Params:      wf.Params,
		HasResult:   wf.HasResult,
		ResultClass: wf.ResultClass,
	}
	for r, c := range wf.RegClasses {
		if c < 0 || c >= NumClasses {
			return nil, fmt.Errorf("ir: decode %s: register v%d has class %d", wf.Name, r, c)
		}
		name := ""
		if r < len(wf.RegNames) {
			name = wf.RegNames[r]
		}
		fn.NewReg(c, name)
	}
	symAt := func(i int) (*Symbol, error) {
		if i == -1 {
			return nil, nil
		}
		if i < 0 || i >= len(syms) {
			return nil, fmt.Errorf("ir: decode %s: symbol index %d out of range [0,%d)", wf.Name, i, len(syms))
		}
		return syms[i], nil
	}
	for _, li := range wf.Locals {
		s, err := symAt(li)
		if err != nil {
			return nil, err
		}
		if s == nil {
			return nil, fmt.Errorf("ir: decode %s: nil local symbol", wf.Name)
		}
		fn.Locals = append(fn.Locals, s)
	}
	for i, wb := range wf.Blocks {
		if wb == nil {
			return nil, fmt.Errorf("ir: decode %s: null element in blocks", wf.Name)
		}
		b := fn.NewBlock()
		if b.ID != i {
			return nil, fmt.Errorf("ir: decode %s: block ID drift", wf.Name)
		}
		b.Instrs = make([]Instr, len(wb.Instrs))
		for j := range wb.Instrs {
			wi := &wb.Instrs[j]
			sym, err := symAt(wi.Sym)
			if err != nil {
				return nil, err
			}
			b.Instrs[j] = Instr{
				Op: wi.Op, Dst: wi.Dst, Args: wi.Args,
				IntVal: wi.IntVal, FloatVal: wi.FloatVal, Cond: wi.Cond,
				Sym: sym, Callee: wi.Callee,
				Then: wi.Then, Else: wi.Else,
			}
		}
	}
	return fn, nil
}
