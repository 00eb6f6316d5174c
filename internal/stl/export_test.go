package stl

// CheckInternMatchesString lets the external tests check the compiler's
// intern keys on Table I, which internal/scs builds.
var CheckInternMatchesString = checkInternMatchesString
