package ml

import "strings"

// cpuOptionOff reports whether the GODEBUG value env turns the CPU
// feature name off, by the rule the runtime applies at start-up
// (internal/cpu's processOptions): fields are comma-separated, each of
// the form cpu.<name>=on|off; cpu.all sets every name; the last field
// that sets a name wins. A field without '=', or with a value other
// than on or off, is ignored, as the runtime ignores it.
func cpuOptionOff(env, name string) bool {
	off := false
	for _, field := range strings.Split(env, ",") {
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			continue
		}
		if key != "cpu."+name && key != "cpu.all" {
			continue
		}
		switch value {
		case "on":
			off = false
		case "off":
			off = true
		}
	}
	return off
}
