package agreement

// KnobPrint renders every observable of a run for the external tests.
var KnobPrint = knobPrint
