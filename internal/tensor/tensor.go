// Package tensor implements generic n-dimensional tensors and the "free"
// shape operations of the paper (§5: reshape, transpose, slice, concat,
// pad, broadcast are reference-only and consume no circuit rows). The
// element type is generic so the same shape machinery serves the float
// interpreter (float64), the fixed-point interpreter (int64), and the
// circuit builder (cell references).
package tensor

import "fmt"

// Tensor is a dense row-major n-dimensional array.
type Tensor[T any] struct {
	Shape []int
	Data  []T
}

// New allocates a zeroed tensor of the given shape.
func New[T any](shape ...int) *Tensor[T] {
	return &Tensor[T]{Shape: append([]int(nil), shape...), Data: make([]T, NumElems(shape))}
}

// FromSlice wraps existing data (not copied) with a shape.
func FromSlice[T any](data []T, shape ...int) *Tensor[T] {
	if len(data) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: %d elements do not fit shape %v", len(data), shape))
	}
	return &Tensor[T]{Shape: append([]int(nil), shape...), Data: data}
}

// CheckShape validates an untrusted shape without panicking: every
// dimension must be non-negative and the element count must not exceed max
// (checked with overflow-safe multiplication, so shapes like [2^40, 2^40]
// are rejected instead of wrapping around to a small product). It returns
// the element count. Use this at trust boundaries (model files) before
// handing a shape to New/FromSlice, which panic on inconsistent input.
func CheckShape(shape []int, max int) (int, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return 0, fmt.Errorf("tensor: negative dimension in %v", shape)
		}
		if d > 0 && n > max/d {
			return 0, fmt.Errorf("tensor: shape %v exceeds %d elements", shape, max)
		}
		n *= d
	}
	return n, nil
}

// NumElems returns the product of the dimensions.
func NumElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in %v", shape))
		}
		n *= d
	}
	return n
}

// Len returns the number of elements.
func (t *Tensor[T]) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor[T]) Rank() int { return len(t.Shape) }

// Strides returns row-major strides for the tensor's shape.
func (t *Tensor[T]) Strides() []int { return Strides(t.Shape) }

// Strides returns row-major strides for a shape.
func Strides(shape []int) []int {
	s := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= shape[i]
	}
	return s
}

// At returns the element at the multi-index.
func (t *Tensor[T]) At(idx ...int) T { return t.Data[t.Offset(idx...)] }

// Set stores an element at the multi-index.
func (t *Tensor[T]) Set(v T, idx ...int) { t.Data[t.Offset(idx...)] = v }

// Offset converts a multi-index to a flat offset.
func (t *Tensor[T]) Offset(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	str := t.Strides()
	for i, v := range idx {
		if v < 0 || v >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off += v * str[i]
	}
	return off
}

// Clone deep-copies the tensor.
func (t *Tensor[T]) Clone() *Tensor[T] {
	return &Tensor[T]{Shape: append([]int(nil), t.Shape...), Data: append([]T(nil), t.Data...)}
}

// Reshape returns a view with a new shape (same underlying data). One
// dimension may be -1 to be inferred.
func (t *Tensor[T]) Reshape(shape ...int) *Tensor[T] {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple inferred dimensions")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.Shape, shape))
		}
		shape[infer] = len(t.Data) / known
	}
	if NumElems(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return &Tensor[T]{Shape: shape, Data: t.Data}
}

// Flatten returns a rank-1 view.
func (t *Tensor[T]) Flatten() *Tensor[T] { return t.Reshape(len(t.Data)) }

// Transpose returns a materialized transpose by the given axis permutation
// (default: reverse axes).
func (t *Tensor[T]) Transpose(perm ...int) *Tensor[T] {
	if len(perm) == 0 {
		perm = make([]int, t.Rank())
		for i := range perm {
			perm[i] = t.Rank() - 1 - i
		}
	}
	if len(perm) != t.Rank() {
		panic("tensor: transpose permutation rank mismatch")
	}
	newShape := make([]int, t.Rank())
	for i, p := range perm {
		newShape[i] = t.Shape[p]
	}
	out := New[T](newShape...)
	srcStr := t.Strides()
	idx := make([]int, t.Rank())
	for flat := 0; flat < out.Len(); flat++ {
		// idx is the multi-index into the OUTPUT tensor.
		src := 0
		for i := range idx {
			src += idx[i] * srcStr[perm[i]]
		}
		out.Data[flat] = t.Data[src]
		for i := t.Rank() - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < newShape[i] {
				break
			}
			idx[i] = 0
		}
	}
	return out
}

// Slice returns a materialized sub-tensor: for each axis, [start, end).
func (t *Tensor[T]) Slice(starts, ends []int) *Tensor[T] {
	if len(starts) != t.Rank() || len(ends) != t.Rank() {
		panic("tensor: slice rank mismatch")
	}
	newShape := make([]int, t.Rank())
	for i := range starts {
		if starts[i] < 0 || ends[i] > t.Shape[i] || starts[i] > ends[i] {
			panic(fmt.Sprintf("tensor: slice [%d,%d) out of bounds for axis %d (size %d)", starts[i], ends[i], i, t.Shape[i]))
		}
		newShape[i] = ends[i] - starts[i]
	}
	out := New[T](newShape...)
	srcStr := t.Strides()
	idx := make([]int, t.Rank())
	for flat := 0; flat < out.Len(); flat++ {
		src := 0
		for i := range idx {
			src += (starts[i] + idx[i]) * srcStr[i]
		}
		out.Data[flat] = t.Data[src]
		for i := t.Rank() - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < newShape[i] {
				break
			}
			idx[i] = 0
		}
	}
	return out
}

// Concat concatenates tensors along an axis.
func Concat[T any](axis int, ts ...*Tensor[T]) *Tensor[T] {
	if len(ts) == 0 {
		panic("tensor: concat of nothing")
	}
	rank := ts[0].Rank()
	newShape := append([]int(nil), ts[0].Shape...)
	total := 0
	for _, t := range ts {
		if t.Rank() != rank {
			panic("tensor: concat rank mismatch")
		}
		for i := range t.Shape {
			if i != axis && t.Shape[i] != newShape[i] {
				panic("tensor: concat shape mismatch")
			}
		}
		total += t.Shape[axis]
	}
	newShape[axis] = total
	out := New[T](newShape...)
	outStr := out.Strides()
	offset := 0
	for _, t := range ts {
		srcStr := t.Strides()
		idx := make([]int, rank)
		for flat := 0; flat < t.Len(); flat++ {
			dst := 0
			for i := range idx {
				v := idx[i]
				if i == axis {
					v += offset
				}
				dst += v * outStr[i]
			}
			src := 0
			for i := range idx {
				src += idx[i] * srcStr[i]
			}
			out.Data[dst] = t.Data[src]
			for i := rank - 1; i >= 0; i-- {
				idx[i]++
				if idx[i] < t.Shape[i] {
					break
				}
				idx[i] = 0
			}
		}
		offset += t.Shape[axis]
	}
	return out
}

// Pad returns the tensor zero-padded (or pad-value padded) by before/after
// amounts per axis.
func (t *Tensor[T]) Pad(before, after []int, padValue T) *Tensor[T] {
	if len(before) != t.Rank() || len(after) != t.Rank() {
		panic("tensor: pad rank mismatch")
	}
	newShape := make([]int, t.Rank())
	for i := range newShape {
		newShape[i] = before[i] + t.Shape[i] + after[i]
	}
	out := New[T](newShape...)
	for i := range out.Data {
		out.Data[i] = padValue
	}
	outStr := out.Strides()
	srcStr := t.Strides()
	idx := make([]int, t.Rank())
	for flat := 0; flat < t.Len(); flat++ {
		dst := 0
		src := 0
		for i := range idx {
			dst += (before[i] + idx[i]) * outStr[i]
			src += idx[i] * srcStr[i]
		}
		out.Data[dst] = t.Data[src]
		for i := t.Rank() - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < t.Shape[i] {
				break
			}
			idx[i] = 0
		}
	}
	return out
}

// Split splits a tensor into equal parts along an axis.
func (t *Tensor[T]) Split(axis, parts int) []*Tensor[T] {
	if t.Shape[axis]%parts != 0 {
		panic(fmt.Sprintf("tensor: axis %d (size %d) not divisible into %d parts", axis, t.Shape[axis], parts))
	}
	size := t.Shape[axis] / parts
	out := make([]*Tensor[T], parts)
	for p := 0; p < parts; p++ {
		starts := make([]int, t.Rank())
		ends := append([]int(nil), t.Shape...)
		starts[axis] = p * size
		ends[axis] = (p + 1) * size
		out[p] = t.Slice(starts, ends)
	}
	return out
}

// Map applies a function elementwise, producing a new tensor (possibly of a
// different element type).
func Map[T, U any](t *Tensor[T], fn func(T) U) *Tensor[U] {
	out := &Tensor[U]{Shape: append([]int(nil), t.Shape...), Data: make([]U, len(t.Data))}
	for i, v := range t.Data {
		out.Data[i] = fn(v)
	}
	return out
}

// Zip applies a binary function elementwise over two same-shape tensors.
func Zip[T, U, V any](a *Tensor[T], b *Tensor[U], fn func(T, U) V) *Tensor[V] {
	if NumElems(a.Shape) != NumElems(b.Shape) {
		panic(fmt.Sprintf("tensor: zip shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := &Tensor[V]{Shape: append([]int(nil), a.Shape...), Data: make([]V, len(a.Data))}
	for i := range a.Data {
		out.Data[i] = fn(a.Data[i], b.Data[i])
	}
	return out
}

// Broadcasts reports whether BroadcastTo takes shape from to shape to: to
// has no lower rank, and each axis of from, aligned from the right, is 1 or
// equal to to's.
func Broadcasts(from, to []int) bool {
	off := len(to) - len(from)
	if off < 0 {
		return false
	}
	for i, d := range from {
		if d != 1 && d != to[off+i] {
			return false
		}
	}
	return true
}

// BroadcastTo materializes a broadcast of t to the target shape following
// NumPy rules (size-1 axes stretch; missing leading axes are added).
func (t *Tensor[T]) BroadcastTo(shape ...int) *Tensor[T] {
	if !Broadcasts(t.Shape, shape) {
		panic(fmt.Sprintf("tensor: cannot broadcast %v to %v", t.Shape, shape))
	}
	// Left-pad the source shape with 1s.
	src := make([]int, len(shape))
	for i := range src {
		src[i] = 1
	}
	copy(src[len(shape)-t.Rank():], t.Shape)
	srcT := &Tensor[T]{Shape: src, Data: t.Data}
	out := New[T](shape...)
	srcStr := srcT.Strides()
	idx := make([]int, len(shape))
	for flat := 0; flat < out.Len(); flat++ {
		srcOff := 0
		for i := range idx {
			v := idx[i]
			if src[i] == 1 {
				v = 0
			}
			srcOff += v * srcStr[i]
		}
		out.Data[flat] = srcT.Data[srcOff]
		for i := len(shape) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < shape[i] {
				break
			}
			idx[i] = 0
		}
	}
	return out
}
