module esds/benchmark

go 1.23

require esds v0.0.0

replace esds => ../
