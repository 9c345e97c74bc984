package ir

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
)

// DecodeProgram parses the wire form back into a validated Program.
// The result is structurally equal to the encoded one: same block IDs,
// same virtual-register numbering, same symbol sharing — so an
// allocation of the decoded program is byte-identical to one of the
// original.
//
// It reads the bytes once and builds functions, blocks and
// instructions as it goes. It accepts the JSON that encoding/json
// would decode into the wire structs and decodes it the same way, with
// three exceptions it rejects: keys that are not spelled exactly as
// the wire structs tag them (case-folded, escaped or unknown), a key
// repeated within one object, and null elements of the funcs, globals,
// blocks and instrs lists. A null scalar decodes to its zero value, as
// in encoding/json. Objects may list their keys in any order.
func DecodeProgram(data []byte) (*Program, error) {
	d := decoderPool.Get().(*decoder)
	defer d.release()
	d.data = data
	p, syms, err := d.program()
	if err != nil {
		return nil, fmt.Errorf("ir: decode program: %w", err)
	}
	if err := d.resolve(p, syms); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("ir: decoded program invalid: %w", err)
	}
	return p, nil
}

// decoder holds the input and the scratch that each function's lists
// are gathered in before they are copied out at their exact sizes.
type decoder struct {
	data []byte
	off  int

	// Per-function scratch, reused by every function.
	instrs    []Instr
	blockEnds []int // instrs index one past each block's last instruction
	args      []Reg
	classes   []Class
	names     []string

	// refs holds every instruction's symbol index in document order;
	// locals[i] holds the local symbol indices of function i. They are
	// resolved once the whole program, globals included, is read.
	refs   []int
	locals [][]int
}

// decoderPool recycles decoders, so that steady-state decoding
// allocates only the program it returns.
var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// release empties d and returns it to decoderPool.
func (d *decoder) release() {
	d.data, d.off = nil, 0
	d.refs, d.locals = d.refs[:0], d.locals[:0]
	decoderPool.Put(d)
}

var errEOF = errors.New("unexpected end of input")

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// program reads the top-level object and returns the program with its
// symbol table, references still unresolved.
func (d *decoder) program() (*Program, []*Symbol, error) {
	p := &Program{}
	version := int64(0)
	var syms []*Symbol
	err := d.object(func(key []byte) (uint16, error) {
		var err error
		switch string(key) {
		case "version":
			version, err = d.int()
			return 1, err
		case "globals":
			syms, err = d.globals()
			return 2, err
		case "funcs":
			return 4, d.objects("funcs", func() error {
				fn, err := d.function()
				if err == nil {
					p.AddFunc(fn)
				}
				return err
			})
		}
		return 0, nil
	})
	if err != nil {
		return nil, nil, err
	}
	d.space()
	if d.off != len(d.data) {
		return nil, nil, d.errorf("data after the program")
	}
	if version != WireVersion {
		return nil, nil, fmt.Errorf("wire version %d, want %d", version, WireVersion)
	}
	for _, g := range syms {
		if !g.Local {
			p.Globals = append(p.Globals, g)
		}
	}
	return p, syms, nil
}

// resolve checks every function's register classes and points its
// local and instruction symbol references at their symbols.
func (d *decoder) resolve(p *Program, syms []*Symbol) error {
	symAt := func(fn *Func, i int) (*Symbol, error) {
		if i == -1 {
			return nil, nil
		}
		if i < 0 || i >= len(syms) {
			return nil, fmt.Errorf("ir: decode %s: symbol index %d out of range [0,%d)", fn.Name, i, len(syms))
		}
		return syms[i], nil
	}
	k := 0
	for f, fn := range p.Funcs {
		for r, c := range fn.regClass {
			if c < 0 || c >= NumClasses {
				return fmt.Errorf("ir: decode %s: register v%d has class %d", fn.Name, r, c)
			}
		}
		if n := len(d.locals[f]); n > 0 {
			fn.Locals = make([]*Symbol, n)
			for j, li := range d.locals[f] {
				s, err := symAt(fn, li)
				if err != nil {
					return err
				}
				if s == nil {
					return fmt.Errorf("ir: decode %s: nil local symbol", fn.Name)
				}
				fn.Locals[j] = s
			}
		}
		for _, b := range fn.Blocks {
			for j := range b.Instrs {
				s, err := symAt(fn, d.refs[k])
				if err != nil {
					return err
				}
				b.Instrs[j].Sym = s
				k++
			}
		}
	}
	return nil
}

func (d *decoder) globals() ([]*Symbol, error) {
	var scratch []Symbol
	err := d.objects("globals", func() error {
		scratch = append(scratch, Symbol{})
		return d.symbol(&scratch[len(scratch)-1])
	})
	if err != nil || len(scratch) == 0 {
		return nil, err
	}
	syms := make([]*Symbol, len(scratch))
	for i := range scratch {
		syms[i] = &scratch[i]
	}
	return syms, nil
}

func (d *decoder) symbol(s *Symbol) error {
	return d.object(func(key []byte) (uint16, error) {
		var err error
		var v int64
		switch string(key) {
		case "name":
			s.Name, err = d.str()
			return 1, err
		case "class":
			v, err = d.int()
			s.Class = Class(v)
			return 2, err
		case "size":
			v, err = d.int()
			s.Size = int(v)
			return 4, err
		case "local":
			s.Local, err = d.bool()
			return 8, err
		case "spill":
			s.Spill, err = d.bool()
			return 16, err
		case "init_int":
			s.InitInt, err = d.int()
			return 32, err
		case "init_float":
			s.InitFloat, err = d.float()
			return 64, err
		}
		return 0, nil
	})
}

// function reads one function object into its own exactly sized
// slices: registers, blocks, instructions and their operands.
func (d *decoder) function() (*Func, error) {
	fn := &Func{}
	d.instrs, d.blockEnds, d.args = d.instrs[:0], d.blockEnds[:0], d.args[:0]
	d.classes, d.names = d.classes[:0], d.names[:0]
	var locals []int
	err := d.object(func(key []byte) (uint16, error) {
		var err error
		var v int64
		switch string(key) {
		case "name":
			fn.Name, err = d.str()
			return 1, err
		case "params":
			fn.Params, err = d.regList()
			return 2, err
		case "has_result":
			fn.HasResult, err = d.bool()
			return 4, err
		case "result_class":
			v, err = d.int()
			fn.ResultClass = Class(v)
			return 8, err
		case "reg_classes":
			_, err = d.list(func() error {
				v, err := d.int()
				d.classes = append(d.classes, Class(v))
				return err
			})
			return 16, err
		case "reg_names":
			_, err = d.list(func() error {
				s, err := d.str()
				d.names = append(d.names, s)
				return err
			})
			return 32, err
		case "locals":
			_, err = d.list(func() error {
				v, err := d.int()
				locals = append(locals, int(v))
				return err
			})
			return 64, err
		case "blocks":
			return 128, d.objects("blocks", d.block)
		}
		return 0, nil
	})
	if err != nil {
		return nil, err
	}
	d.locals = append(d.locals, locals)

	if len(d.classes) > 0 {
		fn.NewRegs(d.classes, d.names)
	}
	blocks := make([]Block, len(d.blockEnds))
	fn.Blocks = make([]*Block, len(blocks))
	code := make([]Instr, len(d.instrs))
	copy(code, d.instrs)
	operands := make([]Reg, len(d.args))
	off := 0
	for j := range code {
		if a := code[j].Args; a != nil {
			n := copy(operands[off:], a)
			code[j].Args = operands[off : off+n : off+n]
			off += n
		}
	}
	start := 0
	for i, end := range d.blockEnds {
		blocks[i] = Block{ID: i, Instrs: code[start:end:end]}
		fn.Blocks[i] = &blocks[i]
		start = end
	}
	// Drop the scratch's strings, so a pooled decoder does not keep a
	// large request's names alive.
	clear(d.instrs)
	clear(d.names)
	return fn, nil
}

// regList reads a list of registers into a slice of its own: nil for
// null, non-nil when the list is present, as encoding/json decodes it.
func (d *decoder) regList() ([]Reg, error) {
	mark := len(d.args)
	present, err := d.list(d.arg)
	if !present || err != nil {
		return nil, err
	}
	regs := make([]Reg, len(d.args)-mark)
	copy(regs, d.args[mark:])
	d.args = d.args[:mark]
	return regs, nil
}

// arg reads one register onto the function's operand scratch.
func (d *decoder) arg() error {
	v, err := d.int()
	d.args = append(d.args, Reg(v))
	return err
}

func (d *decoder) block() error {
	err := d.object(func(key []byte) (uint16, error) {
		if string(key) != "instrs" {
			return 0, nil
		}
		return 1, d.objects("instrs", d.instr)
	})
	d.blockEnds = append(d.blockEnds, len(d.instrs))
	return err
}

// instr reads one instruction onto the function's scratch and its
// symbol index onto d.refs. Absent fields keep their zero values, so
// an instruction without "sym" refers to symbol 0, as encoding/json
// decodes the wire structs.
func (d *decoder) instr() error {
	d.instrs = append(d.instrs, Instr{})
	in := &d.instrs[len(d.instrs)-1]
	sym := 0
	err := d.object(func(key []byte) (uint16, error) {
		var err error
		var v int64
		switch string(key) {
		case "op":
			v, err = d.int()
			in.Op = Op(v)
			return 1, err
		case "dst":
			v, err = d.int()
			in.Dst = Reg(v)
			return 2, err
		case "args":
			mark := len(d.args)
			present, err := d.list(d.arg)
			switch {
			case !present:
				in.Args = nil
			case len(d.args) == mark:
				in.Args = []Reg{} // present but empty: non-nil
			default:
				in.Args = d.args[mark:len(d.args):len(d.args)]
			}
			return 4, err
		case "int_val":
			in.IntVal, err = d.int()
			return 8, err
		case "float_val":
			in.FloatVal, err = d.float()
			return 16, err
		case "cond":
			v, err = d.int()
			in.Cond = Cond(v)
			return 32, err
		case "sym":
			v, err = d.int()
			sym = int(v)
			return 64, err
		case "callee":
			in.Callee, err = d.str()
			return 128, err
		case "then":
			v, err = d.int()
			in.Then = int(v)
			return 256, err
		case "else":
			v, err = d.int()
			in.Else = int(v)
			return 512, err
		}
		return 0, nil
	})
	d.refs = append(d.refs, sym)
	return err
}

// ---------------------------------------------------------------------
// JSON structure

// object reads an object. It calls field with each key, the colon after
// it read; field reads the value and returns the key's bit, or 0, with
// the value unread, for a key the object does not have. A key may
// appear once.
func (d *decoder) object(field func(key []byte) (uint16, error)) error {
	if err := d.expect('{'); err != nil || d.accept('}') {
		return err
	}
	var seen uint16
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		bit, err := field(key)
		switch {
		case err != nil:
			return err
		case bit == 0:
			return d.errorf("unknown key %q", key)
		case seen&bit != 0:
			return d.errorf("duplicate key %q", key)
		}
		seen |= bit
		if d.accept('}') {
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// key reads an object key and the colon after it. Keys are matched byte
// for byte, so one with an escape could only spell a key no wire struct
// has.
func (d *decoder) key() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	for start := d.off; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; {
		case c == '"':
			key := d.data[start:d.off]
			d.off++
			return key, d.expect(':')
		case c == '\\' || c < 0x20:
			return nil, d.errorf("unsupported character %q in key", c)
		}
	}
	return nil, errEOF
}

// list reads an array, calling elem to read each element, and reports
// whether it was present rather than null.
func (d *decoder) list(elem func() error) (present bool, err error) {
	if d.literal("null") {
		return false, nil
	}
	if err := d.expect('['); err != nil || d.accept(']') {
		return true, err
	}
	for {
		if err := elem(); err != nil {
			return true, err
		}
		if d.accept(']') {
			return true, nil
		}
		if err := d.expect(','); err != nil {
			return true, err
		}
	}
}

// objects reads a list of objects, calling elem to read each; a null
// element is an error that names the list.
func (d *decoder) objects(name string, elem func() error) error {
	_, err := d.list(func() error {
		if d.literal("null") {
			return d.errorf("null element in %s", name)
		}
		return elem()
	})
	return err
}

// ---------------------------------------------------------------------
// JSON tokens

func (d *decoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// literal consumes word when it comes next.
func (d *decoder) literal(word string) bool {
	d.space()
	if len(d.data)-d.off >= len(word) && string(d.data[d.off:d.off+len(word)]) == word {
		d.off += len(word)
		return true
	}
	return false
}

// accept consumes c when it comes next.
func (d *decoder) accept(c byte) bool {
	d.space()
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

func (d *decoder) expect(c byte) error {
	switch {
	case d.accept(c):
		return nil
	case d.off >= len(d.data):
		return errEOF
	}
	return d.errorf("found %q, want %q", d.data[d.off], c)
}

// number scans a JSON number and reports whether it is an integer
// literal (no fraction or exponent).
func (d *decoder) number() (text []byte, integer bool, err error) {
	start, i, n := d.off, d.off, len(d.data)
	digits := func() bool {
		j := i
		for i < n && '0' <= d.data[i] && d.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < n && d.data[i] == '-' {
		i++
	}
	switch {
	case i < n && d.data[i] == '0':
		i++
	case !digits():
		return nil, false, d.errorf("malformed number")
	}
	integer = true
	if i < n && d.data[i] == '.' {
		i++
		integer = false
		if !digits() {
			return nil, false, d.errorf("malformed number")
		}
	}
	if i < n && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		integer = false
		if i < n && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, d.errorf("malformed number")
		}
	}
	d.off = i
	return d.data[start:i], integer, nil
}

// int reads an integer into an int64 field, as encoding/json does: the
// literal must have no fraction or exponent and must fit.
func (d *decoder) int() (int64, error) {
	if d.literal("null") {
		return 0, nil
	}
	text, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	if !integer {
		return 0, d.errorf("number %s is not an integer", text)
	}
	digits := text
	if digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) > 18 {
		// Long enough to overflow: let strconv decide exactly.
		v, err := strconv.ParseInt(string(text), 10, 64)
		if err != nil {
			return 0, d.errorf("number %s overflows int64", text)
		}
		return v, nil
	}
	v := int64(0)
	for _, c := range digits {
		v = v*10 + int64(c-'0')
	}
	if text[0] == '-' {
		v = -v
	}
	return v, nil
}

func (d *decoder) float() (float64, error) {
	if d.literal("null") {
		return 0, nil
	}
	text, _, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return 0, d.errorf("number %s out of float64 range", text)
	}
	return v, nil
}

func (d *decoder) bool() (bool, error) {
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"), d.literal("null"):
		return false, nil
	}
	return false, d.errorf("want a boolean")
}

// str reads a string. One without escapes or non-ASCII bytes is copied
// as is; any other goes through encoding/json, so escapes and invalid
// UTF-8 decode exactly as they always have.
func (d *decoder) str() (string, error) {
	if d.literal("null") {
		return "", nil
	}
	if err := d.expect('"'); err != nil {
		return "", err
	}
	start := d.off
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return string(d.data[start:i]), nil
		case c == '\\' || c >= 0x80:
			return d.slowStr(start - 1)
		case c < 0x20:
			return "", d.errorf("control character in string")
		}
	}
	return "", errEOF
}

// slowStr decodes the string literal that opens at begin.
func (d *decoder) slowStr(begin int) (string, error) {
	for i := begin + 1; i < len(d.data); i++ {
		switch d.data[i] {
		case '\\':
			i++
		case '"':
			var s string
			if err := json.Unmarshal(d.data[begin:i+1], &s); err != nil {
				return "", d.errorf("%v", err)
			}
			d.off = i + 1
			return s, nil
		}
	}
	return "", errEOF
}
