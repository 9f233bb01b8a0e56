package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root repeats these tables (plus the regression bounds);
// TestSpecMatchesBenchmarkJSON keeps the two identical.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of the untraced pass, the same on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"time_ms_p50", "ms", "lower"},
	{"throughput_tps", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"accuracy_digits", "digits", "higher"},
}

// perLayer are the metrics of the traced pass. The kernel ladder (host …
// codec) is measured in every traced run; the path groups (mpi, dist, serve,
// client, loadgen) are measured on the workloads whose path holds that layer
// and read 0 on the others.
var perLayer = []metricDef{
	{"host.copy_gbps", "GB/s", "higher"},
	{"host.triad_gbps", "GB/s", "higher"},
	{"window.design_s", "s", "lower"},
	{"conv.apply_ms", "ms", "lower"},
	{"conv.gflops", "GFLOP/s", "higher"},
	{"conv.frac_triad", "ratio", "higher"},
	{"fft.batch_fp_ms", "ms", "lower"},
	{"fft.sixstep_ms", "ms", "lower"},
	{"fft.sixstep_gflops", "GFLOP/s", "higher"},
	{"fft.sixstep_frac_triad", "ratio", "higher"},
	{"fft.plan_458k_ms", "ms", "lower"},
	{"fft.plan_28k_ms", "ms", "lower"},
	{"fft.lane_1k_x8_ms", "ms", "lower"},
	{"fft.lane_1k_x8_gflops", "GFLOP/s", "higher"},
	{"fft.lane_1k_x32_ms", "ms", "lower"},
	{"fft.lane_1k_x32_gflops", "GFLOP/s", "higher"},
	{"cvec.transpose_ms", "ms", "lower"},
	{"cvec.transpose_gbps", "GB/s", "higher"},
	{"soi.forward_ms", "ms", "lower"},
	{"soi.finish_ms", "ms", "lower"},
	{"soi.residual_ms", "ms", "lower"},
	{"soi.residual_frac", "ratio", "lower"},
	{"soi.alloc_bytes_per_op", "count", "lower"},
	{"soi.gflops", "GFLOP/s", "higher"},
	{"soi.over_exact_ratio", "ratio", "lower"},
	{"perfmodel.conv_fft_ratio_err", "ratio", "lower"},
	{"wire.write_1k_mbps", "MB/s", "higher"},
	{"wire.write_28k_mbps", "MB/s", "higher"},
	{"wire.read_1k_mbps", "MB/s", "higher"},
	{"wire.read_28k_mbps", "MB/s", "higher"},
	{"wire.header_rt_ns", "ns", "lower"},
	{"codec.encode_mbps", "MB/s", "higher"},
	{"codec.decode_mbps", "MB/s", "higher"},
	{"codec.ratio", "ratio", "higher"},
	{"mpi.connect_s", "s", "lower"},
	{"mpi.alltoall_ms", "ms", "lower"},
	{"mpi.alltoall_mbps", "MB/s", "higher"},
	{"mpi.sendrecv_us", "us", "lower"},
	{"mpi.msgs_per_op", "count", "lower"},
	{"mpi.bytes_per_op", "count", "lower"},
	{"dist.design_s", "s", "lower"},
	{"dist.conv_ms", "ms", "lower"},
	{"dist.local_fft_ms", "ms", "lower"},
	{"dist.exposed_mpi_ms", "ms", "lower"},
	{"dist.etc_ms", "ms", "lower"},
	{"dist.rank_skew_ms", "ms", "lower"},
	{"serve.queue_wait_ms_per_op", "ms", "lower"},
	{"serve.plan_ms_per_op", "ms", "lower"},
	{"serve.execute_ms_per_op", "ms", "lower"},
	{"serve.serialize_ms_per_op", "ms", "lower"},
	{"serve.mean_batch", "count", "higher"},
	{"serve.max_batch", "count", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.rss_mb", "MB", "lower"},
	{"client.latency_ms_p95", "ms", "lower"},
	{"client.latency_ms_p99", "ms", "lower"},
	{"client.unattributed_ms", "ms", "lower"},
	{"loadgen.lag_ms_p95", "ms", "lower"},
	{"loadgen.cpu_frac", "ratio", "lower"},
	{"loadgen.sent", "count", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// workloadDef names one workload and the function that runs it.
type workloadDef struct {
	Name string
	Run  func(*runConfig) (*result, error)
}

var workloads = []workloadDef{
	{"lib_soi_458k", runLib},
	{"dist_tcp_458k", runDist},
	{"serve_1k_closed", runServe1kClosed},
	{"serve_28k_open", runServe28kOpen},
	{"serve_28k_codec_open", runServe28kCodecOpen},
}
