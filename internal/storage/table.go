// Package storage provides dmml's relational storage substrate: typed
// columnar tables with CSV import/export, plus the page-based buffer pool
// that internal/ooc pages out-of-core matrices through.
package storage

import (
	"fmt"
	"strconv"
)

// ColType enumerates supported column types.
type ColType int

// Supported column types.
const (
	Float64 ColType = iota
	Int64
	String
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	case String:
		return "string"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

// Field is one named, typed column in a schema.
type Field struct {
	Name string
	Type ColType
}

// Schema describes a table's columns.
type Schema struct {
	Fields []Field
	byName map[string]int
}

// NewSchema builds a schema and validates that field names are unique and
// non-empty.
func NewSchema(fields ...Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("storage: schema needs at least one field")
	}
	s := &Schema{Fields: fields, byName: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("storage: field %d has empty name", i)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("storage: duplicate field name %q", f.Name)
		}
		s.byName[f.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// FieldIndex returns the position of the named field, or -1.
func (s *Schema) FieldIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// NumFields returns the number of fields.
func (s *Schema) NumFields() int { return len(s.Fields) }

// Table is an immutable-schema columnar table. Columns are dense slices; the
// table grows by appending rows through a typed interface.
type Table struct {
	schema *Schema
	floats [][]float64 // indexed by field position; nil for non-float fields
	ints   [][]int64
	strs   [][]string
	nrows  int
}

// NewTable creates an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	t := &Table{
		schema: schema,
		floats: make([][]float64, len(schema.Fields)),
		ints:   make([][]int64, len(schema.Fields)),
		strs:   make([][]string, len(schema.Fields)),
	}
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.nrows }

// AppendRow appends one row. vals must match the schema's arity and types:
// float64 for Float64 fields, int64/int for Int64, string for String.
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != len(t.schema.Fields) {
		return fmt.Errorf("storage: AppendRow got %d values, want %d", len(vals), len(t.schema.Fields))
	}
	for i, f := range t.schema.Fields {
		switch f.Type {
		case Float64:
			v, ok := vals[i].(float64)
			if !ok {
				return fmt.Errorf("storage: field %q wants float64, got %T", f.Name, vals[i])
			}
			t.floats[i] = append(t.floats[i], v)
		case Int64:
			switch v := vals[i].(type) {
			case int64:
				t.ints[i] = append(t.ints[i], v)
			case int:
				t.ints[i] = append(t.ints[i], int64(v))
			default:
				return fmt.Errorf("storage: field %q wants int64, got %T", f.Name, vals[i])
			}
		case String:
			v, ok := vals[i].(string)
			if !ok {
				return fmt.Errorf("storage: field %q wants string, got %T", f.Name, vals[i])
			}
			t.strs[i] = append(t.strs[i], v)
		}
	}
	t.nrows++
	return nil
}

// Floats returns the backing slice of a Float64 field.
func (t *Table) Floats(name string) ([]float64, error) {
	i := t.schema.FieldIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("storage: no field %q", name)
	}
	if t.schema.Fields[i].Type != Float64 {
		return nil, fmt.Errorf("storage: field %q is %s, not float64", name, t.schema.Fields[i].Type)
	}
	return t.floats[i], nil
}

// Ints returns the backing slice of an Int64 field.
func (t *Table) Ints(name string) ([]int64, error) {
	i := t.schema.FieldIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("storage: no field %q", name)
	}
	if t.schema.Fields[i].Type != Int64 {
		return nil, fmt.Errorf("storage: field %q is %s, not int64", name, t.schema.Fields[i].Type)
	}
	return t.ints[i], nil
}

// Strings returns the backing slice of a String field.
func (t *Table) Strings(name string) ([]string, error) {
	i := t.schema.FieldIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("storage: no field %q", name)
	}
	if t.schema.Fields[i].Type != String {
		return nil, fmt.Errorf("storage: field %q is %s, not string", name, t.schema.Fields[i].Type)
	}
	return t.strs[i], nil
}

// Value returns the value at (row, field index) as an any.
func (t *Table) Value(row, field int) any {
	switch t.schema.Fields[field].Type {
	case Float64:
		return t.floats[field][row]
	case Int64:
		return t.ints[field][row]
	default:
		return t.strs[field][row]
	}
}

// ValueString formats the value at (row, field) for CSV output.
func (t *Table) ValueString(row, field int) string {
	switch t.schema.Fields[field].Type {
	case Float64:
		return strconv.FormatFloat(t.floats[field][row], 'g', -1, 64)
	case Int64:
		return strconv.FormatInt(t.ints[field][row], 10)
	default:
		return t.strs[field][row]
	}
}

// NumericColumns returns the names of all Float64 and Int64 fields, in schema
// order.
func (t *Table) NumericColumns() []string {
	var out []string
	for _, f := range t.schema.Fields {
		if f.Type == Float64 || f.Type == Int64 {
			out = append(out, f.Name)
		}
	}
	return out
}

// NumericAt returns the value of a numeric field as float64.
func (t *Table) NumericAt(row int, name string) (float64, error) {
	i := t.schema.FieldIndex(name)
	if i < 0 {
		return 0, fmt.Errorf("storage: no field %q", name)
	}
	switch t.schema.Fields[i].Type {
	case Float64:
		return t.floats[i][row], nil
	case Int64:
		return float64(t.ints[i][row]), nil
	default:
		return 0, fmt.Errorf("storage: field %q is not numeric", name)
	}
}

// SelectRows returns a new table containing the given rows, in order.
func (t *Table) SelectRows(rows []int) (*Table, error) {
	out := NewTable(t.schema)
	for _, r := range rows {
		if r < 0 || r >= t.nrows {
			return nil, fmt.Errorf("storage: row %d out of range [0,%d)", r, t.nrows)
		}
	}
	for i, f := range t.schema.Fields {
		switch f.Type {
		case Float64:
			col := make([]float64, len(rows))
			for k, r := range rows {
				col[k] = t.floats[i][r]
			}
			out.floats[i] = col
		case Int64:
			col := make([]int64, len(rows))
			for k, r := range rows {
				col[k] = t.ints[i][r]
			}
			out.ints[i] = col
		case String:
			col := make([]string, len(rows))
			for k, r := range rows {
				col[k] = t.strs[i][r]
			}
			out.strs[i] = col
		}
	}
	out.nrows = len(rows)
	return out, nil
}
