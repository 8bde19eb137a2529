package serve

import (
	"fmt"
	"net/http"
	"reflect"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// buildInfo resolves the dcserved_build_info labels once: the Go
// toolchain version and the VCS revision baked in by `go build` (or
// "unknown" outside a checkout, e.g. a test binary).
var buildInfo = sync.OnceValue(func() (bi struct{ GoVersion, Revision string }) {
	bi.GoVersion, bi.Revision = "unknown", "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.GoVersion = info.GoVersion
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			bi.Revision = s.Value
		}
	}
	return bi
})

// handleMetrics renders the Prometheus text exposition (version 0.0.4) of
// the /healthz document: each of its numbers is one sample of the family
// its field declares (see walk). Only dcserved_build_info and the two
// latency histograms are written by hand. The format is hand-rolled on
// purpose: a few dozen counter/gauge families do not justify a
// client-library dependency, and the golden tests pin the output so the
// surface cannot drift silently.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	bi := buildInfo()
	fmt.Fprintf(&b, "# HELP dcserved_build_info Build metadata; the value is always 1.\n"+
		"# TYPE dcserved_build_info gauge\ndcserved_build_info{goversion=%q,revision=%q} 1\n",
		bi.GoVersion, bi.Revision)
	e := exposition{families: map[string]*strings.Builder{}}
	e.walk(reflect.ValueOf(s.health()), "")
	for _, name := range e.names {
		b.WriteString(e.families[name].String())
	}
	s.reqHist.WriteProm(&b, "dcserved_request_duration_seconds", "endpoint",
		"HTTP request latency by mux pattern; probe endpoints are not sampled.")
	s.jobHist.WriteProm(&b, "dcserved_job_duration_seconds", "kind",
		"Compute job latency by job kind, admission to response.")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(b.Len()))
	w.Write([]byte(b.String()))
}

// exposition collects a document's families in first-seen order, each
// header written once above all of its samples, wherever in the document
// they sit.
type exposition struct {
	names    []string
	families map[string]*strings.Builder
}

// walk renders every declared number under v. A field tagged
// metric:"<family>,<counter|gauge>" (with help:"<text>") is one sample of
// that family; a tagged map contributes one sample per key under the
// label its label tag names. metric:"-" keeps a number /healthz-only.
// Untagged fields are walked into: structs, embedded or not, non-nil
// pointers, and slices, whose elements add the label their string field
// tagged label:"<name>" carries. labels is the enclosing label set,
// rendered (tenant="a").
func (e *exposition) walk(v reflect.Value, labels string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			e.walk(v.Elem(), labels)
		}
	case reflect.Slice:
		for i := range v.Len() {
			e.walk(v.Index(i), labels)
		}
	case reflect.Struct:
		t := v.Type()
		for i := range t.NumField() {
			if name := t.Field(i).Tag.Get("label"); name != "" && v.Field(i).Kind() == reflect.String {
				labels = withLabel(labels, name, v.Field(i).String())
			}
		}
		for i := range t.NumField() {
			f, fv := t.Field(i), v.Field(i)
			switch tag := f.Tag.Get("metric"); {
			case tag == "-":
			case tag == "":
				e.walk(fv, labels)
			case fv.Kind() == reflect.Map:
				e.family(f)
				keys := fv.MapKeys()
				slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
				for _, k := range keys {
					e.sample(f, withLabel(labels, f.Tag.Get("label"), k.String()), fv.MapIndex(k))
				}
			default:
				e.sample(f, labels, fv)
			}
		}
	}
}

// family returns the builder of f's family and the family name, writing
// the HELP and TYPE header when the family is first met.
func (e *exposition) family(f reflect.StructField) (*strings.Builder, string) {
	name, typ, _ := strings.Cut(f.Tag.Get("metric"), ",")
	b := e.families[name]
	if b == nil {
		b = new(strings.Builder)
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, f.Tag.Get("help"), name, typ)
		e.families[name] = b
		e.names = append(e.names, name)
	}
	return b, name
}

// sample writes one sample of f's family.
func (e *exposition) sample(f reflect.StructField, labels string, v reflect.Value) {
	b, name := e.family(f)
	if labels != "" {
		name += "{" + labels + "}"
	}
	n := 0.0
	if v.CanInt() {
		n = float64(v.Int())
	} else {
		n = v.Float()
	}
	fmt.Fprintf(b, "%s %s\n", name, strconv.FormatFloat(n, 'g', -1, 64))
}

// withLabel appends name="value" to a rendered label set.
func withLabel(labels, name, value string) string {
	if labels != "" {
		labels += ","
	}
	return labels + name + "=" + strconv.Quote(value)
}
