//go:build ignore

package x

func Ignored() {}
