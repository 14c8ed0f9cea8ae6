package main

import (
	"strings"
	"testing"
)

func TestReport(t *testing.T) {
	stream := `{"Action":"start","Package":"m/a"}
{"Action":"run","Package":"m/a","Test":"TestX"}
{"Action":"output","Package":"m/a","Test":"TestX","Output":"ok\n"}
{"Action":"pass","Package":"m/a","Test":"TestX","Elapsed":0.5}
{"Action":"fail","Package":"m/a","Test":"TestY/sub","Elapsed":2}
{"Action":"skip","Package":"m/a","Test":"TestZ","Elapsed":9}
{"Action":"fail","Package":"m/a","Elapsed":3.25}
# m/b [build failed]
{"Action":"pass","Package":"m/b","Test":"TestW","Elapsed":1}
{"Action":"pass","Package":"m/b","Elapsed":4}
{"Action":"skip","Package":"m/c","Elapsed":0}
`
	var passthru, out strings.Builder
	pkgs, tests, err := read(strings.NewReader(stream), &passthru)
	if err != nil {
		t.Fatal(err)
	}
	if passthru.String() != "# m/b [build failed]\n" {
		t.Errorf("passed through %q", passthru.String())
	}
	report(&out, pkgs, tests, 2)
	want := `  wall s  package
    4.00  m/b
    3.25  m/a FAIL
    7.25  sum of 2 packages

  wall s  slowest 2 tests
    2.00  m/a TestY/sub FAIL
    1.00  m/b TestW
`
	if out.String() != want {
		t.Errorf("report:\n%s\nwant:\n%s", out.String(), want)
	}
}
