package mrs

import (
	"errors"
	"testing"
)

// TestErrorLinePrefixOnce: Main prints an error of Run under one "mrs: "
// prefix, whether Run made the error (an unknown -mrs implementation)
// or passed the program's own up.
func TestErrorLinePrefixOnce(t *testing.T) {
	err := Run(nopProgram{}, Options{Implementation: "quantum"})
	if err == nil {
		t.Fatal("unknown implementation accepted")
	}
	if got, want := errorLine(err), `mrs: unknown implementation "quantum"`; got != want {
		t.Errorf("printed %q, want %q", got, want)
	}
	if got, want := errorLine(errors.New("run failed")), "mrs: run failed"; got != want {
		t.Errorf("printed %q, want %q", got, want)
	}
}

type nopProgram struct{}

func (nopProgram) Register(*Registry) error { return nil }
func (nopProgram) Run(*Job) error           { return nil }
