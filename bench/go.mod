module github.com/alert-project/alert/bench

go 1.21

require github.com/alert-project/alert v0.0.0

replace github.com/alert-project/alert => ../
