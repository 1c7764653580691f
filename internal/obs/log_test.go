package obs

import (
	"bytes"
	"testing"
)

func TestParseLevel(t *testing.T) {
	for _, s := range []string{"debug", "info", "", "warn", "warning", "error"} {
		if _, err := ParseLevel(s); err != nil {
			t.Errorf("ParseLevel(%q) failed: %v", s, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}
	if _, err := NewLogger(&bytes.Buffer{}, "loud"); err == nil {
		t.Error("NewLogger with a bad level should fail")
	}
}

func TestDiscardLogger(t *testing.T) {
	// Must be safe at every level and allocate no output.
	l := Discard()
	l.Debug("x")
	l.Info("x", "k", "v")
	l.Error("x")
	if l.Enabled(nil, 12) {
		t.Error("discard logger claims to be enabled")
	}
}
