module github.com/irnsim/irn/benchmark

go 1.24

require github.com/irnsim/irn v0.0.0

replace github.com/irnsim/irn => ../
