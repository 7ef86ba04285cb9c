module tornado/bench

go 1.22

require tornado v0.0.0

replace tornado => ../
