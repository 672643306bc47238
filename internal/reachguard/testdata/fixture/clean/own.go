package clean

import "fixture/lib"

func empty(r *lib.Req) bool { return r.Rows == nil } // the nil rule's except names this file
