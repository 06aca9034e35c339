package metrics

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// The Prometheus text exposition format, dependency-free. Each function
// below writes one whole metric family (HELP, TYPE, samples) except the
// two primitives Header and Sample, which the rare family that fits no
// other shape (two labels, hand-picked label values) is built from.

// Value is what a sample can carry. Integers render as %d and floats
// as %g — both are what %v prints.
type Value interface {
	~int | ~int64 | ~uint64 | ~float64
}

// Ms converts a duration to fractional milliseconds, the unit of the
// /varz latency fields.
func Ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Header writes a family's HELP and TYPE lines.
func Header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line; labels are name, value pairs.
func Sample[V Value](w io.Writer, name string, v V, labels ...string) {
	var ls []string
	for i := 0; i+1 < len(labels); i += 2 {
		ls = append(ls, fmt.Sprintf("%s=%q", labels[i], labels[i+1]))
	}
	if ls != nil {
		name += "{" + strings.Join(ls, ",") + "}"
	}
	fmt.Fprintf(w, "%s %v\n", name, v)
}

// Counter writes an unlabelled counter family.
func Counter[V Value](w io.Writer, name, help string, v V) {
	Header(w, name, help, "counter")
	Sample(w, name, v)
}

// Gauge writes an unlabelled gauge family.
func Gauge[V Value](w io.Writer, name, help string, v V) {
	Header(w, name, help, "gauge")
	Sample(w, name, v)
}

// CounterVec writes a counter family with one sample per row; at maps a
// row to its label value and sample value.
func CounterVec[T any, V Value](w io.Writer, name, help, label string, rows []T, at func(T) (string, V)) {
	vec(w, name, help, "counter", label, rows, at)
}

// GaugeVec is CounterVec for a gauge family.
func GaugeVec[T any, V Value](w io.Writer, name, help, label string, rows []T, at func(T) (string, V)) {
	vec(w, name, help, "gauge", label, rows, at)
}

func vec[T any, V Value](w io.Writer, name, help, typ, label string, rows []T, at func(T) (string, V)) {
	Header(w, name, help, typ)
	for _, r := range rows {
		lv, v := at(r)
		Sample(w, name, v, label, lv)
	}
}

// Histogram writes an unlabelled histogram family.
func Histogram(w io.Writer, name, help string, h *Hist) {
	Header(w, name, help, "histogram")
	histSeries(w, name, h)
}

// HistogramVec writes a histogram family with one series per row.
func HistogramVec[T any](w io.Writer, name, help, label string, rows []T, at func(T) (string, *Hist)) {
	Header(w, name, help, "histogram")
	for _, r := range rows {
		lv, h := at(r)
		histSeries(w, name, h, label, lv)
	}
}

// histSeries writes one series: cumulative buckets with le in seconds,
// the +Inf bucket, _sum and _count. Count, sum and buckets are read
// individually, so a series rendered under load may be off by the
// samples that landed mid-read — fine for monitoring.
func histSeries(w io.Writer, name string, h *Hist, labels ...string) {
	count, sum := h.count.Load(), h.sumNs.Load()
	le := append(slices.Clip(labels), "le", "") // Clip: never write into the caller's array
	var cum uint64
	for i := range h.b {
		cum += h.b[i].Load()
		le[len(le)-1] = fmt.Sprintf("%g", float64(BucketUpperUS(i))/1e6)
		Sample(w, name+"_bucket", cum, le...)
	}
	le[len(le)-1] = "+Inf"
	Sample(w, name+"_bucket", count, le...)
	Sample(w, name+"_sum", float64(sum)/1e9, labels...)
	Sample(w, name+"_count", count, labels...)
}
