package trace

import (
	"fmt"
	"strings"
	"time"
)

// Text renders the trace as an indented plan tree — the EXPLAIN ANALYZE
// pretty form shared by the server and the CLI's -explain flag.
func (t *Trace) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s %s", t.ID, t.Kind)
	if t.Name != "" {
		fmt.Fprintf(&b, " %q", t.Name)
	}
	fmt.Fprintf(&b, " total=%s", fmtDur(t.DurNs))
	if t.Err != "" {
		fmt.Fprintf(&b, " error=%q", t.Err)
	}
	b.WriteByte('\n')
	if sql, _ := t.Statement(); sql != "" {
		fmt.Fprintf(&b, "sql: %s\n", sql)
	}
	if t.Root != nil {
		for _, c := range t.Root.Children {
			writeSpan(&b, c, 0)
		}
	}
	return b.String()
}

func writeSpan(b *strings.Builder, sp *Span, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(sp.Name)
	if sp.Detail != "" {
		fmt.Fprintf(b, " [%s]", sp.Detail)
	}
	if sp.RowsIn != 0 || sp.RowsOut != 0 {
		fmt.Fprintf(b, " rows=%d/%d", sp.RowsIn, sp.RowsOut)
	}
	fmt.Fprintf(b, " time=%s\n", fmtDur(sp.DurNs))
	for _, c := range sp.Children {
		writeSpan(b, c, depth+1)
	}
}

// fmtDur renders nanoseconds rounded to the microsecond, so rendered
// trees stay aligned and goldens normalize with one regexp.
func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
