module fsmonitor/benchmark

go 1.22

require fsmonitor v0.0.0

replace fsmonitor => ../
