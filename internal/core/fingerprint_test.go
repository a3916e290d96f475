package core

import (
	"reflect"
	"testing"
)

// TestOptionsFingerprint pins which Options fields reach the compile
// service's cache key: changing a field Fingerprint includes must change
// the key, and changing one its doc lists as outcome-invariant must not.
// Every field sits in exactly one list, so an option cannot join Options
// without being classified.
func TestOptionsFingerprint(t *testing.T) {
	included := map[string]bool{
		"Opt2BitWidthMin": true, "Opt4ConstantSynthesis": true,
		"Opt5KeyGrouping": true, "MaxIterations": true,
		"MaxBudget": true, "SkipLint": true, "Seed": true,
	}
	excluded := map[string]bool{
		"Workers": true, "Timeout": true, "QuerySink": true,
		"EmitCertificate": true, "LogProofs": true,
	}
	base := DefaultOptions()
	typ := reflect.TypeOf(base)
	if n := typ.NumField(); n != len(included)+len(excluded) {
		t.Errorf("Options has %d fields, the lists classify %d", n, len(included)+len(excluded))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		o := base
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 3)
		case reflect.Func:
			f.Set(reflect.ValueOf(func(QueryDump) {}))
		default:
			t.Fatalf("field %s: no mutation for kind %s", name, f.Kind())
		}
		changed := o.Fingerprint() != base.Fingerprint()
		switch {
		case included[name] && !changed:
			t.Errorf("changing %s leaves the fingerprint unchanged", name)
		case excluded[name] && changed:
			t.Errorf("changing outcome-invariant %s changes the fingerprint", name)
		case !included[name] && !excluded[name]:
			t.Errorf("field %s is in neither list", name)
		}
	}
}
