module github.com/greenhpc/actor/benchmarks

go 1.24

require github.com/greenhpc/actor v0.0.0

replace github.com/greenhpc/actor => ../
