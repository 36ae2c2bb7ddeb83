package core

// TinyOptions exposes the fast pipeline configuration to the external
// golden tests.
var TinyOptions = tinyOptions
