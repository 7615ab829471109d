module sqlgraph/benchmark

go 1.22

require sqlgraph v0.0.0

replace sqlgraph => ../
