// Package strictjson decodes the one JSON value an input holds, refusing
// unknown object fields and anything after the value: a typo'd field or a
// second value in a spec file or a request body is an error, never data
// dropped without a word.
package strictjson

import (
	"encoding/json"
	"errors"
	"io"
)

// Decode decodes the JSON value r holds into v. Only white space may
// follow the value.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}
