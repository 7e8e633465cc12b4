package config

import (
	"flag"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// daemonConfig is what both daemon configurations offer their command.
type daemonConfig interface {
	ApplyEnv(lookup func(string) (string, bool)) error
	Flags(fs *flag.FlagSet)
}

// changedValue renders a value for a field that differs from its current
// one, in the syntax both the environment and the flags accept.
func changedValue(t *testing.T, f reflect.Value) string {
	switch v := f.Interface().(type) {
	case time.Duration:
		return (v + time.Millisecond).String()
	case []string:
		return "http://changed:1,http://changed:2"
	}
	switch f.Kind() {
	case reflect.String:
		return f.String() + "-changed"
	case reflect.Int, reflect.Int64:
		return strconv.FormatInt(f.Int()+1, 10)
	case reflect.Float64:
		return strconv.FormatFloat(f.Float()+0.5, 'g', -1, 64)
	}
	t.Fatalf("no test value for a %s field", f.Type())
	return ""
}

// TestConfigParity: every JSON field of both daemon configurations is read
// from the environment as PREFIX + the upper-cased key without _ns, and
// bound to the flag named after the key (_ → -, without -ns), and each of
// the two changes the field. A knob cannot land in one layer or one daemon
// only.
func TestConfigParity(t *testing.T) {
	for _, c := range []struct {
		prefix string
		fresh  func() daemonConfig
	}{
		{"TASKGRAIND_", func() daemonConfig { s := DefaultServer(); return &s }},
		{"TASKMESHD_", func() daemonConfig { m := validMesh(); return &m }},
	} {
		fields := reflect.VisibleFields(reflect.TypeOf(c.fresh()).Elem())
		for _, sf := range fields {
			if sf.Anonymous {
				continue
			}
			key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			if key == "" || key == "-" {
				t.Errorf("%s%s: field %s has no JSON key", c.prefix, sf.Name, sf.Name)
				continue
			}
			base := strings.TrimSuffix(key, "_ns")
			field := func(cfg daemonConfig) reflect.Value {
				return reflect.ValueOf(cfg).Elem().FieldByIndex(sf.Index)
			}

			env := c.prefix + strings.ToUpper(base)
			cfg := c.fresh()
			before := field(cfg).Interface()
			val := changedValue(t, field(cfg))
			if err := cfg.ApplyEnv(func(k string) (string, bool) { return val, k == env }); err != nil {
				t.Errorf("%s=%q: %v", env, val, err)
			} else if reflect.DeepEqual(field(cfg).Interface(), before) {
				t.Errorf("%s=%q did not change %s (json %q)", env, val, sf.Name, key)
			}

			name := strings.ReplaceAll(base, "_", "-")
			cfg = c.fresh()
			fs := flag.NewFlagSet("parity", flag.ContinueOnError)
			cfg.Flags(fs)
			before = field(cfg).Interface()
			if fs.Lookup(name) == nil {
				t.Errorf("%s: no -%s flag for json %q", c.prefix, name, key)
			} else if err := fs.Set(name, changedValue(t, field(cfg))); err != nil {
				t.Errorf("-%s: %v", name, err)
			} else if reflect.DeepEqual(field(cfg).Interface(), before) {
				t.Errorf("-%s did not change %s (json %q)", name, sf.Name, key)
			}
		}
	}
}
