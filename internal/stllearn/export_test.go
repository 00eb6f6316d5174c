package stllearn

// The external tests set the worker count.
var (
	LearnWorkers           = learn
	LearnPerPatientWorkers = learnPerPatient
)
