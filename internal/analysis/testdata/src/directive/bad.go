// Package directive holds malformed //moc:allow fixtures: a directive
// without a reason, or naming an unknown analyzer, is reported rather
// than honored.
package directive

import "errors"

// ErrGone is a package-level sentinel.
var ErrGone = errors.New("gone")

// Gone carries a reasonless directive: the directive itself is a
// diagnostic, and the errcmp finding it tried to cover still fires.
func Gone(err error) bool {
	//moc:allow errcmp
	return err == ErrGone
}

// Zero carries a directive naming an analyzer that does not exist.
//
//moc:allow nosuchanalyzer the name is wrong
func Zero() int {
	return 0
}
