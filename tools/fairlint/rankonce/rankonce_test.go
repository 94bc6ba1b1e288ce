package rankonce_test

import (
	"testing"

	"fairrank/tools/fairlint/internal/antest"
	"fairrank/tools/fairlint/rankonce"
)

func TestRankOnce(t *testing.T) {
	antest.Run(t, "testdata", rankonce.Analyzer,
		"example.com/internal/rank",
		"example.com/internal/core",
	)
}
