// Package tuple defines fixed-width record schemas and the tuple values that
// flow through the storage engine and the query operators.
//
// The paper's experimental substrate (§5.1) stores 8-byte divisor and
// quotient records and 16-byte dividend records; tuples here are flat byte
// slices whose layout is described by a Schema, so a tuple occupies exactly
// its declared width on a page and can be handed around by address without
// copying, as the paper's buffer manager does.
package tuple

import (
	"fmt"
	"slices"
	"strings"
)

// Kind enumerates the supported column types. All types are fixed width so
// that records have a fixed size and pages can be slotted uniformly.
type Kind uint8

const (
	// KindInt64 is a signed 64-bit integer stored little-endian.
	KindInt64 Kind = iota
	// KindChar is a fixed-width byte string, padded with zero bytes.
	KindChar
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "INT64"
	case KindChar:
		return "CHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Field describes one column of a schema.
type Field struct {
	Name  string
	Kind  Kind
	Width int // bytes occupied; 8 for KindInt64, caller-chosen for KindChar
}

// Int64Field returns an 8-byte integer column.
func Int64Field(name string) Field {
	return Field{Name: name, Kind: KindInt64, Width: 8}
}

// CharField returns a fixed-width character column of w bytes.
func CharField(name string, w int) Field {
	return Field{Name: name, Kind: KindChar, Width: w}
}

// Schema is an immutable description of a record layout: an ordered list of
// fixed-width fields with precomputed byte offsets.
type Schema struct {
	fields  []Field
	offsets []int
	all     []int // the identity projection, shared by CompareAll and HashAll
	width   int
}

// NewSchema builds a schema from fields. It panics on invalid field widths
// because schemas are built from program constants, not user input.
func NewSchema(fields ...Field) *Schema {
	s := &Schema{
		fields:  make([]Field, len(fields)),
		offsets: make([]int, len(fields)),
		all:     make([]int, len(fields)),
	}
	copy(s.fields, fields)
	off := 0
	for i, f := range s.fields {
		s.all[i] = i
		switch f.Kind {
		case KindInt64:
			if f.Width != 8 {
				panic(fmt.Sprintf("tuple: int64 field %q must have width 8, got %d", f.Name, f.Width))
			}
		case KindChar:
			if f.Width <= 0 {
				panic(fmt.Sprintf("tuple: char field %q must have positive width, got %d", f.Name, f.Width))
			}
		default:
			panic(fmt.Sprintf("tuple: field %q has unknown kind %d", f.Name, f.Kind))
		}
		s.offsets[i] = off
		off += f.Width
	}
	s.width = off
	return s
}

// Width returns the total record width in bytes.
func (s *Schema) Width() int { return s.width }

// NumFields returns the number of columns.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th column description.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Offset returns the byte offset of the i-th column within a record.
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// IndexOf returns the position of the named column, or -1 if absent.
func (s *Schema) IndexOf(name string) int {
	for i, f := range s.fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Columns returns the column names in order.
func (s *Schema) Columns() []string {
	names := make([]string, len(s.fields))
	for i, f := range s.fields {
		names[i] = f.Name
	}
	return names
}

// Project returns the schema of the listed columns, in the listed order.
func (s *Schema) Project(cols []int) *Schema {
	fields := make([]Field, len(cols))
	for i, c := range cols {
		fields[i] = s.fields[c]
	}
	return NewSchema(fields...)
}

// Concat returns a schema holding this schema's columns followed by other's.
func (s *Schema) Concat(other *Schema) *Schema {
	fields := make([]Field, 0, len(s.fields)+len(other.fields))
	fields = append(fields, s.fields...)
	fields = append(fields, other.fields...)
	return NewSchema(fields...)
}

// Equal reports whether the two schemas have identical layout (names
// included).
func (s *Schema) Equal(other *Schema) bool {
	if s.width != other.width || len(s.fields) != len(other.fields) {
		return false
	}
	for i := range s.fields {
		if s.fields[i] != other.fields[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.Name, f.Kind)
		if f.Kind == KindChar {
			fmt.Fprintf(&b, "(%d)", f.Width)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// AllColumns returns [0, 1, ..., n-1], the identity projection, as a slice
// the caller owns.
func (s *Schema) AllColumns() []int {
	return slices.Clone(s.all)
}

// Complement returns the columns of the schema that are not in cols,
// preserving schema order. It is how quotient attributes are derived from
// divisor attributes: quotient = dividend columns \ divisor columns.
func (s *Schema) Complement(cols []int) []int {
	in := make(map[int]bool, len(cols))
	for _, c := range cols {
		in[c] = true
	}
	out := make([]int, 0, len(s.fields)-len(cols))
	for i := range s.fields {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}
