package main

// pinnedSeed is the seed whose reference digests are pinned below.
const pinnedSeed = 1

// pinned holds, per workload, the batch digest of seed pinnedSeed: the
// SHA-256 over the batch's per-job digests, each the SHA-256 of the job's
// JSON-encoded Stats. A change that moves any simulated statistic of these
// job sets fails the check, so a speed-up cannot pass by changing results.
var pinned = map[string]string{
	"sweep-mem":     "6b88f852c58b1b4760946e5fc344a73ca587f1ddcb0186ec5223d9258c750f42",
	"sweep-compute": "55e255d752926418d8fb950544016bf4ece737e215f03cbd1e4fe760169677e8",
	"sliced-extend": "bddbe233b4ed879bf7921726c1c92b44a5913d30431dac9827443e4eea158d65",
	"serve-warm":    "19527909dc78b83fb0457556636472b7f65d4b2c3aaf95e673b024a8fc925962",
}
