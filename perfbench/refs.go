package main

// referenceSeed is the default --seed; runs on it must reproduce the
// pinned digests below exactly. Any other seed has no pinned
// reference, so its runs must agree with each other instead.
const referenceSeed = 1

// referenceDigests are the derived-event digests of each workload's
// stream at referenceSeed.
var referenceDigests = map[string]digest{
	"toll-replay": {count: 21440, sum: 0x462996443a03ca96},
	"pam-paced":   {count: 123348, sum: 0x36f4d81d08e27fac},
}
