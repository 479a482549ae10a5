package appliance_test

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/appliance"
	"repro/internal/blobdb"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/gridenv"
)

func fieldNames(v any) map[string]bool {
	names := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
		names[f.Name] = true
	}
	return names
}

var backticked = regexp.MustCompile("`([^`]+)`")

// TestREADMEKnobTables holds README.md to the structs it documents: every
// field of appliance.Config is named there, and every name in the first
// column of a knob table (header "| knob |") is a field of one of the
// five configuration structs an operator or a study can set.
func TestREADMEKnobTables(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	config := fieldNames(appliance.Config{})
	for name := range config {
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md never mentions appliance.Config.%s", name)
		}
	}
	known := []map[string]bool{
		config, fieldNames(blobdb.Options{}), fieldNames(gateway.Config{}),
		fieldNames(gridenv.Options{}), fieldNames(experiments.Options{}),
	}
	inKnobTable, rows := false, 0
	for i, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			inKnobTable = false
			continue
		}
		first := strings.TrimSpace(cells[1])
		switch {
		case first == "knob":
			inKnobTable = true
		case !inKnobTable || strings.HasPrefix(first, "---"):
		default:
			rows++
			names := backticked.FindAllStringSubmatch(first, -1)
			if len(names) == 0 {
				t.Errorf("README.md:%d: knob row names no field: %q", i+1, first)
			}
		next:
			for _, m := range names {
				for _, fields := range known {
					if fields[m[1]] {
						continue next
					}
				}
				t.Errorf("README.md:%d: knob table names `%s`, a field of no configuration struct", i+1, m[1])
			}
		}
	}
	if rows < len(config)/2 {
		t.Fatalf("found %d knob-table rows in README.md: the tables moved or changed shape", rows)
	}
}

// TestChangesLinesWrapped keeps CHANGES.md readable and diffable: one
// wrapped paragraph per PR, no line over 400 bytes.
func TestChangesLinesWrapped(t *testing.T) {
	changes, err := os.ReadFile("../../CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(changes), "\n") {
		if len(line) > 400 {
			t.Errorf("CHANGES.md:%d is %d bytes long; wrap it", i+1, len(line))
		}
	}
}
