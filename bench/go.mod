module dvecap/bench

go 1.24

require dvecap v0.0.0

replace dvecap => ../
