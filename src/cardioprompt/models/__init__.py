"""Six from-scratch classifier families behind one train/search surface."""

from .adaboost import AdaBoostStumps
from .forest import RandomForest
from .gbt import GradientBoostedTrees
from .importance import ImportanceRanking, build_ranking
from .knn import KNNClassifier
from .logistic import LogisticRegressionGD, loss_and_grad
from .mlp import MLPClassifier
from .search import CvReport, CvTrial, randomized_search, stratified_folds
from .serialize import load_model, model_from_json, model_to_json, save_model
from .spaces import EXPECTED_KNOB_COUNTS, FAMILIES, SPACES, sample_assignment
from .tree import DecisionTree
from .zoo import TrainedModel, feature_importance, train
