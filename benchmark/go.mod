module eclipse/benchmark

go 1.22

require eclipse v0.0.0

replace eclipse => ../
