package x

func testOnly() {}
