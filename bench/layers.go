package main

import (
	"strings"

	"taskgrain/internal/counters"
	"taskgrain/internal/policyengine"
)

// Per-layer metrics come from three places: counter deltas over the
// untraced window (this file), the stage chain of the traced window
// (trace.go), and isolated direct calls (ladder.go). BENCHMARK.json lists
// every name; bench/README.md says which end-to-end metric each should move
// and on which workload.

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics turns the untraced window's counter deltas into per-job
// and per-task figures. Node counters are summed over the nodes.
func counterMetrics(w window) map[string]metric {
	jobs := float64(len(w.res.records))
	n, gw := w.nodes, w.gw
	tasks := n[counters.CountCumulative]
	exec, fn := n[counters.TimeExecTotal], n[counters.TimeFuncTotal]
	secs := w.res.elapsed.Seconds()

	grainMoves := 0.0
	for name, v := range n {
		if strings.HasPrefix(name, "/server/grain{") &&
			(strings.HasSuffix(name, "/decisions{grow}") || strings.HasSuffix(name, "/decisions{shrink}")) {
			grainMoves += v
		}
	}
	shed := n["/server/jobs/shed"]

	return map[string]metric{
		"client.jobs_measured": {jobs, "count"},

		"journal.appends_per_job":   {ratio(n["/journal/appends"], jobs), "count"},
		"journal.fsyncs_per_job":    {ratio(n["/journal/fsyncs"], jobs), "count"},
		"journal.group_commit_size": {ratio(n["/journal/appends"], n["/journal/fsyncs"]), "count"},
		"journal.bytes_per_job":     {ratio(float64(w.journalBytes), jobs), "B"},

		"taskrt.tasks_per_job": {ratio(tasks, jobs), "count"},
		// Per thousand grid points the stencil's task count does not depend
		// on which sizes the seed drew, so it must repeat exactly.
		"stencil.tasks_per_kpoint": {ratio(tasks, w.res.points/1e3), "count"},
		// Eq. 2, Eq. 3 and Eq. 1 of the paper over the window.
		"taskrt.exec_us_per_task":     {ratio(exec, tasks) / 1e3, "us"},
		"taskrt.overhead_us_per_task": {ratio(fn-exec, tasks) / 1e3, "us"},
		"taskrt.idle_rate":            {ratio(fn-exec, fn), "frac"},
		"taskrt.pending_miss_ratio":   {ratio(n[counters.PendingMisses], n[counters.PendingAccesses]), "frac"},
		"taskrt.steals_per_ktask":     {ratio(n[counters.CountStolen], tasks) * 1e3, "count"},
		"taskrt.wakeups_per_job":      {ratio(n[counters.CountWakeups], jobs), "count"},
		"taskrt.park_timeouts_per_s":  {ratio(n[counters.CountParkTimeouts], secs), "1/s"},

		"taskserve.shed_frac":              {ratio(shed, shed+n["/server/jobs/submitted"]), "frac"},
		"policyengine.decisions_per_s":     {ratio(n[policyengine.ControlDecisions], secs), "1/s"},
		"policyengine.grain_moves_per_job": {ratio(grainMoves, jobs), "count"},

		"mesh.spills_per_job":           {ratio(gw["/mesh/jobs/spills"], jobs), "count"},
		"mesh.failovers":                {gw["/mesh/jobs/failovers"], "count"},
		"mesh.placement_fsyncs_per_job": {ratio(gw["/journal/fsyncs"], jobs), "count"},

		"proc.allocs_per_job":     {ratio(float64(w.mallocs), jobs), "count"},
		"proc.alloc_kb_per_job":   {ratio(float64(w.allocBytes), jobs) / 1024, "KB"},
		"proc.gc_pause_ms_per_s":  {ratio(float64(w.gcPauseNS)/1e6, secs), "ms/s"},
		"proc.cpu_ms_per_job":     {ratio(w.cpuMS, jobs), "ms"},
		"client.jobs_per_s_plain": {ratio(jobs, secs), "1/s"},
	}
}

// stageMetrics adds the traced window's stage chain and read-path figures,
// and the tracing overhead: the traced window's throughput against the
// untraced window's, same stack, same run.
func stageMetrics(m map[string]metric, s traceSummary, plain, traced window) {
	for k, name := range stageNames {
		m[name] = metric{s.stageMeanUS[k], "us"}
	}
	m["taskserve.queue_wait_p99_us"] = metric{s.queueWaitP99US, "us"}
	m["taskserve.journal_ack_us"] = metric{s.journalAckMeanUS, "us"}
	m["taskserve.poll_handler_us"] = metric{s.pollSelfMeanUS, "us"}
	// Read-path attempts per useful outcome (one terminal view per job):
	// what the clients sent, what the nodes served, and — under a gateway,
	// where every node poll is an upstream poll or a hedge probe — what the
	// gateway sent upstream.
	clientPolls, upstream := s.nodePollsPerJob, 0.0
	if s.gwPollsPerJob > 0 {
		clientPolls, upstream = s.gwPollsPerJob, s.nodePollsPerJob
	}
	m["client.polls_per_job"] = metric{clientPolls, "count"}
	m["taskserve.polls_per_job"] = metric{s.nodePollsPerJob, "count"}
	m["mesh.upstream_polls_per_job"] = metric{upstream, "count"}
	m["mesh.submit_self_us"] = metric{s.gwSubmitSelfUS, "us"}
	m["mesh.poll_relay_self_us"] = metric{s.gwRelaySelfUS, "us"}
	m["client.ack_mean_us"] = metric{s.ackMeanUS, "us"}
	m["client.latency_mean_us"] = metric{s.latencyMeanUS, "us"}
	m["trace.jobs_traced"] = metric{float64(s.jobs), "count"}
	m["trace.stage_sum_err_frac"] = metric{s.maxSumErr, "frac"}

	rate := func(w window) float64 { return ratio(float64(len(w.res.records)), w.res.elapsed.Seconds()) }
	m["trace.overhead_frac"] = metric{1 - ratio(rate(traced), rate(plain)), "frac"}
}
