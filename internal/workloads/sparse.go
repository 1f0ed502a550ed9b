package workloads

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
)

// SparseMatrix is a sparse matrix in the row-oriented compressed format the
// paper describes as "alike to the Harwell-Boeing format" (§V): row
// pointers into parallel column-index and value arrays.
type SparseMatrix struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Vals       []float64
}

// NNZ returns the number of stored coefficients.
func (m *SparseMatrix) NNZ() int64 { return int64(len(m.Vals)) }

// RandomSparse builds a Rows×Cols matrix with approximately nnzPerRow
// non-null coefficients per row, as the paper's randomly-generated group
// (10^6×10^6 with 50 or 100 nnz/row; the harness scales sizes down).
func RandomSparse(seed int64, rows, cols, nnzPerRow int) *SparseMatrix {
	rng := rand.New(rand.NewSource(seed))
	m := &SparseMatrix{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int64, rows+1),
	}
	for r := 0; r < rows; r++ {
		n := nnzPerRow/2 + rng.Intn(nnzPerRow+1) // average ≈ nnzPerRow
		cs := make(map[int32]struct{}, n)
		for len(cs) < n && len(cs) < cols {
			cs[int32(rng.Intn(cols))] = struct{}{}
		}
		sorted := make([]int32, 0, len(cs))
		for c := range cs {
			sorted = append(sorted, c)
		}
		// Insertion sort keeps the generator allocation-light and
		// deterministic.
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		for _, c := range sorted {
			m.ColIdx = append(m.ColIdx, c)
			m.Vals = append(m.Vals, rng.Float64()*2-1)
		}
		m.RowPtr[r+1] = int64(len(m.Vals))
	}
	return m
}

// MultiplySeq computes y = m·x natively (reference output).
func (m *SparseMatrix) MultiplySeq(x []float64) []float64 {
	y := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var acc float64
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			acc += m.Vals[i] * x[m.ColIdx[i]]
		}
		y[r] = acc
	}
	return y
}

// WriteRowFormat serializes the matrix in the textual row-oriented format:
//
//	spmxv <rows> <cols> <nnz>
//	<rowptr...  (rows+1 entries)>
//	<colidx value> per nnz line
func (m *SparseMatrix) WriteRowFormat(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "spmxv %d %d %d\n", m.Rows, m.Cols, m.NNZ())
	for i, p := range m.RowPtr {
		if i > 0 {
			bw.WriteByte(' ')
		}
		fmt.Fprintf(bw, "%d", p)
	}
	bw.WriteByte('\n')
	for i := range m.Vals {
		fmt.Fprintf(bw, "%d %.17g\n", m.ColIdx[i], m.Vals[i])
	}
	return bw.Flush()
}

// MaxRowFormatDim caps the row and column counts ReadRowFormat accepts
// (16M, well above the paper's 10^6×10^6 matrices). A consumer sizes its
// dense vectors by them, so a one-line header must not be able to demand
// more memory than that.
const MaxRowFormatDim = 1 << 24

// ReadRowFormat parses the format written by WriteRowFormat, so matrices
// from external collections can be dropped in. Memory grows with the
// input actually read, never with the header's counts alone. An accepted
// matrix has RowPtr[0] == 0, non-decreasing row pointers ending at the
// coefficient count, and every column index inside the matrix, so a
// consumer can slice by the row pointers without further checks.
func ReadRowFormat(r io.Reader) (*SparseMatrix, error) {
	br := bufio.NewReader(r)
	var rows, cols int
	var nnz int64
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("workloads: reading header: %w", err)
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(header), "spmxv %d %d %d", &rows, &cols, &nnz); err != nil {
		return nil, fmt.Errorf("workloads: bad header %q: %w", strings.TrimSpace(header), err)
	}
	if rows <= 0 || cols <= 0 || nnz < 0 || rows > MaxRowFormatDim || cols > MaxRowFormatDim {
		return nil, fmt.Errorf("workloads: invalid dimensions %dx%d nnz %d (each dimension 1..%d)", rows, cols, nnz, MaxRowFormatDim)
	}
	m := &SparseMatrix{Rows: rows, Cols: cols}
	ptrLine, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("workloads: reading row pointers: %w", err)
	}
	for _, f := range strings.Fields(ptrLine) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workloads: bad row pointer %q", f)
		}
		m.RowPtr = append(m.RowPtr, v)
	}
	if len(m.RowPtr) != rows+1 {
		return nil, fmt.Errorf("workloads: %d row pointers, want %d", len(m.RowPtr), rows+1)
	}
	if m.RowPtr[0] != 0 {
		return nil, fmt.Errorf("workloads: first row pointer %d, want 0", m.RowPtr[0])
	}
	for i := 1; i <= rows; i++ {
		if m.RowPtr[i] < m.RowPtr[i-1] {
			return nil, fmt.Errorf("workloads: row pointer %d (%d) below its predecessor %d", i, m.RowPtr[i], m.RowPtr[i-1])
		}
	}
	if m.RowPtr[rows] != nnz {
		return nil, fmt.Errorf("workloads: last row pointer %d != nnz %d", m.RowPtr[rows], nnz)
	}
	for i := int64(0); i < nnz; i++ {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return nil, fmt.Errorf("workloads: truncated at coefficient %d: %w", i, err)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("workloads: bad coefficient line %q", strings.TrimSpace(line))
		}
		c, err1 := strconv.ParseInt(fields[0], 10, 32)
		v, err2 := strconv.ParseFloat(fields[1], 64)
		if err1 != nil || err2 != nil || c < 0 || int(c) >= cols {
			return nil, fmt.Errorf("workloads: bad coefficient %q", strings.TrimSpace(line))
		}
		m.ColIdx = append(m.ColIdx, int32(c))
		m.Vals = append(m.Vals, v)
	}
	return m, nil
}
