package ir

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Wire form of the IR: a canonical, self-contained JSON encoding of a
// Program, read by the allocation service (internal/server), whose
// /allocate endpoint accepts a serialized program instead of MC
// source. EncodeProgram goes through encoding/json over the wire
// structs below, and determinism comes for free from structs and
// slices (no maps): identical IR encodes to identical bytes within one
// build of the codec. DecodeProgram (wire_decode.go) does not use
// encoding/json: it reads the schema the wire structs' tags define in
// a single pass. The encoding is versioned so a decoder can reject
// bytes from an incompatible codec instead of misreading them.
//
// Next to it lives the canonical binary form of one function
// (WriteCanonicalFunc), which the content-addressed result cache
// (internal/resultcache) streams into its keys. It carries the same
// fields as the wire structs.

// WireVersion identifies the wire encoding and the canonical binary
// form. Bump it on any change to the wire structs, the binary form, or
// their meaning; it leads every canonical form hashed into a
// result-cache key, so stale cross-version entries can never be
// served.
const WireVersion = 1

// wireProgram mirrors Program.
type wireProgram struct {
	Version int           `json:"version"`
	Globals []*wireSymbol `json:"globals,omitempty"`
	Funcs   []*wireFunc   `json:"funcs"`
}

// wireSymbol mirrors Symbol.
type wireSymbol struct {
	Name      string  `json:"name"`
	Class     Class   `json:"class"`
	Size      int     `json:"size,omitempty"`
	Local     bool    `json:"local,omitempty"`
	Spill     bool    `json:"spill,omitempty"`
	InitInt   int64   `json:"init_int,omitempty"`
	InitFloat float64 `json:"init_float,omitempty"`
}

// wireFunc mirrors Func. Register classes and debug names are encoded
// positionally: RegClasses[r] is the class of virtual register r.
type wireFunc struct {
	Name        string       `json:"name"`
	Params      []Reg        `json:"params,omitempty"`
	HasResult   bool         `json:"has_result,omitempty"`
	ResultClass Class        `json:"result_class,omitempty"`
	RegClasses  []Class      `json:"reg_classes"`
	RegNames    []string     `json:"reg_names,omitempty"`
	Locals      []int        `json:"locals,omitempty"` // indices into the program symbol table
	Blocks      []*wireBlock `json:"blocks"`
}

// wireBlock mirrors Block; its ID is its index.
type wireBlock struct {
	Instrs []wireInstr `json:"instrs"`
}

// wireInstr mirrors Instr. Sym references the program-wide symbol
// table by index (-1 = none), so shared symbols stay shared after a
// round trip and spill slots (function locals) encode like any other
// symbol.
type wireInstr struct {
	Op       Op      `json:"op"`
	Dst      Reg     `json:"dst"`
	Args     []Reg   `json:"args,omitempty"`
	IntVal   int64   `json:"int_val,omitempty"`
	FloatVal float64 `json:"float_val,omitempty"`
	Cond     Cond    `json:"cond,omitempty"`
	Sym      int     `json:"sym"`
	Callee   string  `json:"callee,omitempty"`
	Then     int     `json:"then,omitempty"`
	Else     int     `json:"else,omitempty"`
}

// symTable assigns stable indices to every symbol a program references.
type symTable struct {
	index map[*Symbol]int
	syms  []*Symbol
}

func (t *symTable) add(s *Symbol) int {
	if s == nil {
		return -1
	}
	if i, ok := t.index[s]; ok {
		return i
	}
	i := len(t.syms)
	t.index[s] = i
	t.syms = append(t.syms, s)
	return i
}

// EncodeProgram renders p in the canonical wire form. Identical
// programs (same structure, same symbol contents) produce identical
// bytes.
func EncodeProgram(p *Program) ([]byte, error) {
	tab := &symTable{index: make(map[*Symbol]int)}
	wp := &wireProgram{Version: WireVersion}
	// Seed the table with the globals in program order so their indices
	// are position-independent of instruction order.
	for _, g := range p.Globals {
		tab.add(g)
	}
	wp.Funcs = make([]*wireFunc, len(p.Funcs))
	for i, fn := range p.Funcs {
		wf, err := encodeFunc(fn, tab)
		if err != nil {
			return nil, err
		}
		wp.Funcs[i] = wf
	}
	wp.Globals = make([]*wireSymbol, len(tab.syms))
	for i, s := range tab.syms {
		wp.Globals[i] = &wireSymbol{
			Name: s.Name, Class: s.Class, Size: s.Size, Local: s.Local,
			Spill: s.Spill, InitInt: s.InitInt, InitFloat: s.InitFloat,
		}
	}
	return json.Marshal(wp)
}

// WriteCanonicalFunc writes the canonical binary form of fn to w. It
// is the hashing form resultcache keys stream into SHA-256: two
// functions with identical structure and identical referenced symbols
// write identical bytes, regardless of which program they came from.
//
// The form leads with WireVersion and covers every field the wire form
// carries. Integers are varints and strings and lists are
// length-prefixed, so the bytes are self-delimiting:
//
//	version, name,
//	register count, then per register: class, debug name,
//	params, has-result, result class, locals,
//	block count, then per block its instruction count and per
//	instruction: op, dst, args, IntVal, FloatVal bits, cond, sym,
//	callee, then, else.
//
// A symbol reference is -1 for none or the symbol's index in
// first-reference order (locals first, then instructions); at its
// first reference the index is followed by the symbol's name, class,
// size, local and spill flags and initial values.
func WriteCanonicalFunc(w io.Writer, fn *Func) error {
	c := canonWriter{w: w, buf: make([]byte, 0, 2*canonChunk)}
	c.uvarint(WireVersion)
	c.str(fn.Name)
	c.uvarint(uint64(fn.NumRegs()))
	for r := range fn.regClass {
		c.varint(int64(fn.regClass[r]))
		c.str(fn.RegName(Reg(r)))
	}
	c.uvarint(uint64(len(fn.Params)))
	for _, p := range fn.Params {
		c.varint(int64(p))
	}
	c.flag(fn.HasResult)
	c.varint(int64(fn.ResultClass))
	c.uvarint(uint64(len(fn.Locals)))
	for _, l := range fn.Locals {
		c.sym(l)
	}
	c.uvarint(uint64(len(fn.Blocks)))
	for i, b := range fn.Blocks {
		if b.ID != i {
			return fmt.Errorf("ir: encode %s: block %d has ID %d", fn.Name, i, b.ID)
		}
		c.uvarint(uint64(len(b.Instrs)))
		for j := range b.Instrs {
			in := &b.Instrs[j]
			c.varint(int64(in.Op))
			c.varint(int64(in.Dst))
			c.uvarint(uint64(len(in.Args)))
			for _, a := range in.Args {
				c.varint(int64(a))
			}
			c.varint(in.IntVal)
			c.float(in.FloatVal)
			c.varint(int64(in.Cond))
			c.sym(in.Sym)
			c.str(in.Callee)
			c.varint(int64(in.Then))
			c.varint(int64(in.Else))
			if len(c.buf) >= canonChunk {
				c.flush()
			}
		}
	}
	c.flush()
	return c.err
}

// canonChunk is how many bytes WriteCanonicalFunc gathers before it
// hands them to its writer.
const canonChunk = 2048

// canonWriter buffers the canonical form on its way to w.
type canonWriter struct {
	w    io.Writer
	buf  []byte
	syms []*Symbol // symbols referenced so far, in first-reference order
	err  error
}

func (c *canonWriter) uvarint(v uint64) { c.buf = binary.AppendUvarint(c.buf, v) }
func (c *canonWriter) varint(v int64)   { c.buf = binary.AppendVarint(c.buf, v) }

func (c *canonWriter) float(v float64) {
	c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(v))
}

func (c *canonWriter) flag(b bool) {
	if b {
		c.buf = append(c.buf, 1)
	} else {
		c.buf = append(c.buf, 0)
	}
}

func (c *canonWriter) str(s string) {
	c.uvarint(uint64(len(s)))
	c.buf = append(c.buf, s...)
}

// sym writes a symbol reference. A function references few distinct
// symbols, so a linear search of the ones seen so far stands in for a
// map.
func (c *canonWriter) sym(s *Symbol) {
	if s == nil {
		c.varint(-1)
		return
	}
	for i, seen := range c.syms {
		if seen == s {
			c.varint(int64(i))
			return
		}
	}
	c.varint(int64(len(c.syms)))
	c.syms = append(c.syms, s)
	c.str(s.Name)
	c.varint(int64(s.Class))
	c.varint(int64(s.Size))
	c.flag(s.Local)
	c.flag(s.Spill)
	c.varint(s.InitInt)
	c.float(s.InitFloat)
}

func (c *canonWriter) flush() {
	if c.err == nil {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

func encodeFunc(fn *Func, tab *symTable) (*wireFunc, error) {
	wf := &wireFunc{
		Name:        fn.Name,
		Params:      fn.Params,
		HasResult:   fn.HasResult,
		ResultClass: fn.ResultClass,
		RegClasses:  make([]Class, fn.NumRegs()),
		RegNames:    make([]string, fn.NumRegs()),
	}
	named := false
	for r := 0; r < fn.NumRegs(); r++ {
		wf.RegClasses[r] = fn.RegClass(Reg(r))
		wf.RegNames[r] = fn.RegName(Reg(r))
		named = named || wf.RegNames[r] != ""
	}
	if !named {
		wf.RegNames = nil
	}
	for _, l := range fn.Locals {
		wf.Locals = append(wf.Locals, tab.add(l))
	}
	wf.Blocks = make([]*wireBlock, len(fn.Blocks))
	for i, b := range fn.Blocks {
		if b.ID != i {
			return nil, fmt.Errorf("ir: encode %s: block %d has ID %d", fn.Name, i, b.ID)
		}
		wb := &wireBlock{Instrs: make([]wireInstr, len(b.Instrs))}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			wb.Instrs[j] = wireInstr{
				Op: in.Op, Dst: in.Dst, Args: in.Args,
				IntVal: in.IntVal, FloatVal: in.FloatVal, Cond: in.Cond,
				Sym: tab.add(in.Sym), Callee: in.Callee,
				Then: in.Then, Else: in.Else,
			}
		}
		wf.Blocks[i] = wb
	}
	return wf, nil
}
