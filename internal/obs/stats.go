package obs

import (
	"reflect"
	"strings"
)

// RegisterStats exposes every field of the struct T that carries a
// `metric:"name"` tag, with its `help:"…"` text, as a series read from
// snapshot at scrape time. A name ending in _total registers as a
// counter, any other name as a gauge. The tags are read once, here; a
// scrape takes one snapshot per series, so the component's own update
// path stays untouched. Tagged fields must be integers or floats.
func RegisterStats[T any](r *Registry, snapshot func() T, labels ...Label) {
	for _, f := range reflect.VisibleFields(reflect.TypeFor[T]()) {
		name, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		index := f.Index
		read := func() float64 {
			v := reflect.ValueOf(snapshot()).FieldByIndex(index)
			if v.CanInt() {
				return float64(v.Int())
			}
			return v.Float()
		}
		if strings.HasSuffix(name, "_total") {
			r.CounterFunc(name, f.Tag.Get("help"), read, labels...)
		} else {
			r.GaugeFunc(name, f.Tag.Get("help"), read, labels...)
		}
	}
}

// MetricName returns the metric name T's field is exposed as by
// RegisterStats ("" if it has none), for code that reads another
// process's scrape by name.
func MetricName[T any](field string) string {
	f, _ := reflect.TypeFor[T]().FieldByName(field)
	return f.Tag.Get("metric")
}
