module xarch/benchmark

go 1.24

require xarch v0.0.0

replace xarch => ../
